(* The search workload: single-domain critical-q searches over testers
   built from public constructors, the shape T1-T7 and T13 repeat at
   every grid point.

   Each search is [Evaluate.critical_q] with the fast profile's trials
   and level and adaptive stopping, exactly as the experiments call it.
   The traced run wraps [make] and each tester's [accepts] (and the
   sample source a round receives) from outside, so probes, rounds,
   draws, calibration time and minor words are counted where the work
   happens without touching the library. *)

module E = Dut_core.Evaluate
module Rng = Dut_prng.Rng

let ell = 7
let eps = 0.3
let k = 32
let n = 1 lsl (ell + 1)
let hi = 4096

(* The doubling phase probes lo, 2lo+1, 4lo+3, ...: from the default
   lo = 1 that is ..., 255, 511, right across the bipartite tester's
   q* (about 230-260), so about half its searches probed a 511-sample
   graph with four times the edges and the workload's cost was bimodal
   across seeds. From lo = 2 the brackets are ..., 191, 383; every
   probe still pays its full cost. *)
let lo = 2
let cfg = Dut_experiments.Config.make Dut_experiments.Config.Fast ~jobs:1

type family = Refereed | Local

type spec = {
  name : string;
  family : family;
  make : calib:Rng.t -> int -> E.tester;
      (** [calib] feeds the calibrated testers' referee simulation *)
}

let calibration_trials = cfg.Dut_experiments.Config.calibration_trials

(* Building the inputs is this workload's set-up: the LOCAL testers'
   topologies, the comparison-graph families, the tester closures. *)
let inputs () =
  let module C = Dut_core.Comparison_graph in
  let grid = Dut_netsim.Graph.grid 6 6 and path = Dut_netsim.Graph.path 36 in
  let local name graph =
    {
      name;
      family = Local;
      make =
        (fun ~calib q ->
          Dut_netsim.Local_tester.tester ~graph ~n ~eps ~q ~calibration_trials
            ~rng:(Rng.split calib));
    }
  in
  [
    { name = "clique-and"; family = Refereed; make = (fun ~calib:_ q -> C.tester_and ~n ~eps ~k ~q C.Clique) };
    {
      name = "threshold-4";
      family = Refereed;
      make = (fun ~calib:_ q -> Dut_core.Threshold_tester.tester_fixed ~n ~eps ~k ~q ~t:4);
    };
    {
      name = "majority";
      family = Refereed;
      make =
        (fun ~calib q ->
          Dut_core.Threshold_tester.tester_majority ~n ~eps ~k ~q ~calibration_trials
            ~rng:(Rng.split calib));
    };
    {
      name = "bipartite";
      family = Refereed;
      make = (fun ~calib:_ q -> C.tester_fixed ~n ~eps ~k ~q ~t:1 C.Bipartite);
    };
    {
      name = "rbit-3";
      family = Refereed;
      make =
        (fun ~calib q ->
          Dut_core.Rbit_tester.tester ~n ~eps ~k ~q ~bits:3 ~calibration_trials
            ~rng:(Rng.split calib));
    };
    local "local-grid6x6" grid;
    local "local-path36" path;
  ]

(* -- Instrumentation -------------------------------------------------- *)

type layer = {
  mutable rounds : int;
  mutable round_ns : int;
  mutable words : float;
  mutable draws : int;
  mutable replayed_draws : int;  (** draws re-timed alone, every 8th round *)
  mutable replay_ns : int;
}

type trace = {
  mutable probes : int;
  mutable make_ns : int;
  refereed : layer;
  local : layer;
}

let new_layer () =
  { rounds = 0; round_ns = 0; words = 0.; draws = 0; replayed_draws = 0; replay_ns = 0 }

let new_trace () = { probes = 0; make_ns = 0; refereed = new_layer (); local = new_layer () }
let now_ns = Dut_obs.Span.now_ns

(* A spare stream for re-timing draws: sources are pure functions of the
   stream they are handed, so drawing from a spare never perturbs the
   trial's own randomness. *)
let spare = Rng.create 0x5eed

let wrap tr family make q =
  tr.probes <- tr.probes + 1;
  let t0 = now_ns () in
  let t = make q in
  tr.make_ns <- tr.make_ns + (now_ns () - t0);
  let l = match family with Refereed -> tr.refereed | Local -> tr.local in
  let accepts rng source =
    let draws = ref 0 in
    let counted r =
      incr draws;
      source r
    in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let v = t.E.accepts rng counted in
    let dt = now_ns () - t0 in
    l.words <- l.words +. (Gc.minor_words () -. w0);
    l.rounds <- l.rounds + 1;
    l.round_ns <- l.round_ns + dt;
    l.draws <- l.draws + !draws;
    if l.rounds land 7 = 0 then begin
      let d = !draws in
      let t1 = now_ns () in
      for _ = 1 to d do
        ignore (Sys.opaque_identity (source spare))
      done;
      l.replay_ns <- l.replay_ns + (now_ns () - t1);
      l.replayed_draws <- l.replayed_draws + d
    end;
    v
  in
  { t with E.accepts }

(* [on_probe] is called as each probe starts, i.e. at every [make]. *)
let search ?(on_probe = ignore) ?trace ~seed spec =
  let root = Rng.create seed in
  let rng = Rng.split root and calib = Rng.split root in
  let make q =
    on_probe ();
    spec.make ~calib q
  in
  let make = match trace with None -> make | Some tr -> wrap tr spec.family make in
  E.critical_q ~adaptive:true ~trials:cfg.trials ~level:cfg.level ~rng ~ell ~eps ~lo ~hi make

(* -- The workload ------------------------------------------------------ *)

type outcome = {
  set_s : float list;  (** each pass's untraced search time *)
  cpu_s : float list;  (** each pass's untraced search CPU seconds *)
  probe_s : float list;  (** each untraced probe: one Monte-Carlo power estimate *)
  attempted : int;
  failed : int;
  layers : (string * float) list;
  report : string list;
}

let sub_seed seed i = Hashtbl.hash (seed, i, "search")

(* [passes] passes over the 7 testers with a fresh sub-seed each; then
   one search of pass 0 again, which must reproduce its q* exactly. With
   [traced], every search also runs wrapped right after its plain run,
   and must return the same q*. *)
let run ~seed ~passes ~traced specs =
  let set_s = ref [] and probe_s = ref [] and cpu_s = ref [] in
  let deltas = ref [] and gc_words = ref 0. and gc_major = ref 0 in
  let attempted = ref 0 and failed = ref 0 in
  let tr = new_trace () in
  let traced_ns = ref 0 in
  let first = ref [] in
  let pass i =
    let s = sub_seed seed i in
    let plain = ref 0 and plain_cpu = ref 0. in
    let qs =
      List.map
        (fun spec ->
          let starts = ref [] in
          let on_probe () = starts := now_ns () :: !starts in
          let c = Host.self_cpu_s () in
          let a = now_ns () in
          let q = search ~on_probe ~seed:s spec in
          let b = now_ns () in
          plain := !plain + (b - a);
          plain_cpu := !plain_cpu +. (Host.self_cpu_s () -. c);
          ignore
            (List.fold_left
               (fun stop start ->
                 probe_s := float_of_int (stop - start) *. 1e-9 :: !probe_s;
                 start)
               b !starts);
          incr attempted;
          if q = None then incr failed;
          if traced then begin
            let snap = Dut_obs.Metrics.snapshot () and gc = Gc.quick_stat () in
            let b = now_ns () in
            let q' = search ~trace:tr ~seed:s spec in
            traced_ns := !traced_ns + (now_ns () - b);
            let gc' = Gc.quick_stat () in
            gc_words := !gc_words +. (gc'.minor_words -. gc.minor_words);
            gc_major := !gc_major + (gc'.major_collections - gc.major_collections);
            deltas := Spec.add_deltas !deltas (Spec.counter_deltas snap (Dut_obs.Metrics.snapshot ()));
            if q' <> q then incr failed
          end;
          q)
        specs
    in
    set_s := float_of_int !plain *. 1e-9 :: !set_s;
    cpu_s := !plain_cpu :: !cpu_s;
    qs
  in
  for i = 0 to passes - 1 do
    let qs = pass i in
    if i = 0 then first := qs
  done;
  let k = abs seed mod List.length specs in
  incr attempted;
  if search ~seed:(sub_seed seed 0) (List.nth specs k) <> List.nth !first k then incr failed;
  let q_line =
    String.concat " "
      (List.map2
         (fun spec q ->
           Printf.sprintf "%s=%s" spec.name
             (match q with Some q -> string_of_int q | None -> "none"))
         specs !first)
  in
  let layers =
    if not traced then []
    else
      let per_round l = if l.rounds = 0 then 0. else 1. /. float_of_int l.rounds in
      let r = tr.refereed and lo = tr.local in
      let draw_ns =
        if r.replayed_draws = 0 then 0.
        else float_of_int r.replay_ns /. float_of_int r.replayed_draws
      in
      let round_ns = float_of_int r.round_ns *. per_round r in
      let draws_per_round = float_of_int r.draws *. per_round r in
      let all_rounds = r.rounds + lo.rounds in
      let make_s = float_of_int tr.make_ns *. 1e-9 in
      let rounds_s = float_of_int (r.round_ns + lo.round_ns) *. 1e-9 in
      let replay_s = float_of_int (r.replay_ns + lo.replay_ns) *. 1e-9 in
      let traced_s = float_of_int !traced_ns *. 1e-9 in
      let plain_s = List.fold_left ( +. ) 0. !set_s in
      let trials = Option.value (List.assoc_opt "mc.trials_used" !deltas) ~default:0. in
      [
        ("stats.critical.probes", float_of_int tr.probes);
        ( "stats.montecarlo.rounds_per_probe",
          if tr.probes = 0 then 0. else float_of_int all_rounds /. float_of_int tr.probes );
        ("core.round_us", round_ns /. 1e3);
        ("dist.draws_per_round", draws_per_round);
        ("dist.draw_ns", draw_ns);
        ( "core.player_share",
          if round_ns = 0. then 0. else 1. -. (draws_per_round *. draw_ns /. round_ns) );
        ("core.minor_words_per_round", r.words *. per_round r);
        ("netsim.round_us", float_of_int lo.round_ns *. per_round lo /. 1e3);
        ("netsim.minor_words_per_round", lo.words *. per_round lo);
        ("core.calibration_s", make_s);
        ( "reconcile.search_residual_share",
          if traced_s = 0. then 0. else (traced_s -. replay_s -. make_s -. rounds_s) /. traced_s );
        ( "reconcile.trace_overhead_share",
          if plain_s = 0. then 0. else (traced_s -. plain_s) /. plain_s );
        ("gc.minor_words_per_trial", if trials = 0. then 0. else !gc_words /. trials);
        ("gc.major_collections", float_of_int !gc_major);
      ]
      @ !deltas
  in
  let report =
    [
      Printf.sprintf "search: %d passes (%s s), %d searches, %d probes; pass 0 q*: %s" passes
        (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !set_s))
        (!attempted - 1) (List.length !probe_s) q_line;
    ]
    @
    match layers with
    | [] -> []
    | l ->
        let g k = List.assoc k l in
        [
          Printf.sprintf
            "search reconcile: make %.3fs + rounds %.3fs vs wrapped searches (residual %.1f%%); \
             tracing overhead %.1f%% over the plain searches"
            (g "core.calibration_s")
            (float_of_int (tr.refereed.round_ns + tr.local.round_ns) *. 1e-9)
            (100. *. g "reconcile.search_residual_share")
            (100. *. g "reconcile.trace_overhead_share");
        ]
  in
  {
    set_s = !set_s;
    probe_s = !probe_s;
    cpu_s = !cpu_s;
    attempted = !attempted;
    failed = !failed;
    layers;
    report;
  }
