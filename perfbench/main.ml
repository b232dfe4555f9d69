(* Benchmark entry point (see README.md):

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs one workload from the repository root, checks its outputs and
   prints, as its last stdout line, one JSON object with [correct],
   [attempted], [failed] and [metrics]: every end-to-end metric with
   --trace 0, every per-layer metric with --trace 1. Lines before it
   (prefixed "# ") carry the run's provenance, the output checks and
   the reconciliation of layers against the whole. *)

let work_dir = ".perfbench-work"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (ENOENT, _, _) -> ()
  | { st_kind = S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

type args = {
  mutable workload : string option;
  mutable seed : int option;
  mutable seconds : float option;
  mutable trace : bool option;
  mutable probe : string option;
  mutable check : string option;
}

let parse argv =
  let a =
    { workload = None; seed = None; seconds = None; trace = None; probe = None; check = None }
  in
  let int_arg k v = match int_of_string_opt v with Some i -> i | None -> die "%s: not an integer: %s" k v in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> a.workload <- Some w; go rest
    | "--seed" :: s :: rest -> a.seed <- Some (int_arg "--seed" s); go rest
    | "--seconds" :: s :: rest ->
        let s = int_arg "--seconds" s in
        if s < 1 then die "--seconds must be positive";
        a.seconds <- Some (float_of_int s);
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> a.trace <- Some (t = "1"); go rest
    | "--setup-probe" :: w :: rest -> a.probe <- Some w; go rest
    | "--check-run" :: p :: rest -> a.check <- Some p; go rest
    | x :: _ -> die "unexpected argument %S" x
  in
  go (List.tl (Array.to_list argv));
  a

(* Set-up of the search workload: a fresh process that loads the
   program and builds the workload's inputs, timed from spawn to exit.
   A few milliseconds each, so the median of 15, before any domain
   exists in this process. *)
let probe_setup ~exe ~workload =
  let once () =
    let t0 = Gen.now () in
    let pid =
      Unix.create_process exe
        [| exe; "--setup-probe"; workload |]
        Unix.stdin Unix.stderr Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> Gen.now () -. t0
    | _ -> die "set-up probe for %s failed" workload
  in
  List.init 15 (fun _ -> once ())

let build_inputs workload =
  match workload with
  | "search" -> ignore (Sys.opaque_identity (Search.inputs ()))
  | w -> die "no set-up probe for %s" w

type run = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;
  report : string list;
  late_p99_ms : float option;
}

(* The distribution of a workload's operation times, for its report. *)
let ops_line seconds =
  let s = Pstats.summarize (Array.of_list (List.map (fun x -> x *. 1e3) seconds)) in
  Printf.sprintf "latency over %d operations: p50 %.3fms, %s" s.count s.p50
    (match (s.tail_pct, s.tail) with
    | Some p, Some t -> Printf.sprintf "p%.1f %.3fms" p t
    | _ -> "too few for a tail")

let self_rss () = Option.value (Host.peak_rss_mb (Unix.getpid ())) ~default:0.

let run_workload ~exe ~workload ~seed ~seconds ~traced =
  let median l = Pstats.median (Array.of_list l) in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  match workload with
  | "search" ->
      let setup = probe_setup ~exe ~workload in
      Dut_engine.Parallel.set_default_jobs 1;
      let specs = Search.inputs () in
      (* The pass count follows from [seconds] alone (a pass takes 4-5 s
         on a 2-core VM), so a seed always names the same work. The traced
         run also runs the registry, so it makes two passes: its figures
         are counts and per-round ratios, and it must end in time. *)
      let passes = if traced then 2 else max 2 (int_of_float (Float.round (seconds /. 3.))) in
      let r = Search.run ~seed ~passes ~traced specs in
      let rss = self_rss () in
      (* The experiments and engine layers: the registry's run-all, traced
         run only. *)
      let x = if traced then Some (Reproduce.run ~seed ~exe ~work:work_dir) else None in
      let x_layers = match x with Some x -> x.layers | None -> [] in
      let x_attempted, x_failed, x_report =
        match x with
        | Some x ->
            (x.attempted, x.failed, x.report @ [ "run-all experiments " ^ ops_line x.experiment_s ])
        | None -> (0, 0, [])
      in
      {
        attempted = r.attempted + x_attempted;
        failed = r.failed + x_failed;
        e2e =
          [
            ("setup_s", median setup);
            ("peak_rss_mb", rss);
            (* Means: pass times vary with the sub-seed, and over a few
               passes the mean is the steadier estimate of a pass. *)
            ("job_s", mean r.set_s);
            ("cpu_s", mean r.cpu_s);
          ];
        (* Names both report (GC and counter deltas) keep the run-all's figures. *)
        layers = x_layers @ List.filter (fun (k, _) -> not (List.mem_assoc k x_layers)) r.layers;
        report = r.report @ [ "search probe " ^ ops_line r.probe_s ] @ x_report;
        late_p99_ms = None;
      }
  | "serve-power" ->
      let dut = Filename.concat (Filename.dirname (Filename.dirname exe)) "bin/dut_cli.exe" in
      if not (Sys.file_exists dut) then die "missing %s (build bin/dut_cli.exe first)" dut;
      let r = Serve.run ~seed ~seconds ~traced ~dut ~work:work_dir in
      {
        attempted = r.attempted;
        failed = r.failed;
        e2e =
          [
            ("setup_s", median r.setup_s);
            ("peak_rss_mb", r.peak_rss_mb);
            ("job_s", r.job_s);
            ("cpu_s", r.cpu_s);
          ];
        layers = r.layers;
        report = r.report;
        late_p99_ms = r.late_p99_ms;
      }
  | w -> die "unknown workload %S (%s)" w (String.concat "|" Spec.workloads)

let metric_json (m : Spec.metric) v =
  (m.name, Dut_obs.Json.Obj [ ("value", Dut_obs.Json.Num v); ("unit", Dut_obs.Json.Str m.unit_) ])

let () =
  let a = parse Sys.argv in
  let exe = Sys.executable_name in
  match (a.probe, a.check) with
  | Some w, _ -> build_inputs w
  | None, Some path -> Reproduce.check_run ~seed:(Option.value a.seed ~default:0) ~path
  | None, None ->
      let need name = function Some v -> v | None -> die "missing %s" name in
      let workload = need "--workload" a.workload in
      if not (List.mem workload Spec.workloads) then
        die "unknown workload %S (%s)" workload (String.concat "|" Spec.workloads);
      let seed = need "--seed" a.seed and seconds = need "--seconds" a.seconds in
      let traced = need "--trace" a.trace in
      let git = Dut_obs.Manifest.git_describe () in
      rm_rf work_dir;
      Unix.mkdir work_dir 0o700;
      let cpu0 = Host.cpu_ticks () in
      let r = run_workload ~exe ~workload ~seed ~seconds ~traced in
      let steal = Host.steal_share cpu0 (Host.cpu_ticks ()) in
      (* A counter the program no longer defines is reported absent. *)
      let known = Dut_obs.Metrics.snapshot () in
      let absent = List.filter (fun c -> not (List.mem_assoc c known)) Spec.counters in
      rm_rf work_dir;
      let prov = Host.provenance ~git ~steal ~late_ms:r.late_p99_ms in
      (* Behind schedule: p99 lateness of several inter-arrival gaps at
         the highest rate, not the scheduling jitter of a busy 2-core box. *)
      let behind = match r.late_p99_ms with Some l -> l > 5. | None -> false in
      Printf.printf "# provenance %s\n" (Dut_obs.Json.to_string prov);
      if behind then
        Printf.printf "# WARNING generator behind schedule: p99 lateness %.3fms\n"
          (Option.get r.late_p99_ms);
      List.iter (Printf.printf "# %s\n") r.report;
      let layers =
        r.layers
        @ [
            ("gen.late_ms", Option.value r.late_p99_ms ~default:0.);
            ("host.steal_share", Option.value steal ~default:0.);
          ]
      in
      let metrics =
        if traced then
          List.filter_map
            (fun (m : Spec.metric) ->
              if List.mem m.name absent then None
              else
                let v = Option.value (List.assoc_opt m.name layers) ~default:0. in
                Some (metric_json m (if Float.is_nan v then 0. else v)))
            Spec.per_layer
        else List.map (fun (m : Spec.metric) -> metric_json m (List.assoc m.name r.e2e)) Spec.end_to_end
      in
      if absent <> [] then Printf.printf "# absent counters: %s\n" (String.concat ", " absent);
      let open Dut_obs.Json in
      print_endline
        (to_string
           (Obj
              [
                ("correct", Bool (r.failed = 0));
                ("attempted", int r.attempted);
                ("failed", int r.failed);
                ("metrics", Obj metrics);
              ]))
