(* Benchmark harness.

   Three parts:

   1. Regenerate every experiment table of EXPERIMENTS.md (fast profile)
      -- the reproduction itself. One table group per theorem/lemma.
   2. Bechamel micro-benchmarks of each experiment's computational
      kernel (one Test.make per experiment), so performance regressions
      in the simulators are visible.
   3. Engine bench: sequential vs parallel wall-clock for the heaviest
      experiment kernels, recorded to results/bench_engine.json so the
      perf trajectory is machine-readable across PRs. Run only this
      part with `dune exec bench/main.exe -- --engine`. *)

open Bechamel
open Bechamel.Toolkit

(* -- Part 1: regenerate the experiment tables -------------------------- *)

let regenerate_tables () =
  let cfg = Dut_experiments.Config.make Dut_experiments.Config.Fast in
  let report = Dut_experiments.Runner.run_all_to_channel cfg stdout in
  Printf.printf "# all tables regenerated in %.1fs wall (%.1fs summed-cpu)\n\n%!"
    report.Dut_experiments.Runner.wall_seconds report.cpu_seconds

(* -- Part 2: kernel micro-benchmarks ----------------------------------- *)

let kernel_tests () =
  let rng = Dut_prng.Rng.create 2019 in
  let ell = 7 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in
  let hard = Dut_dist.Paninski.random ~ell ~eps rng in
  let majority =
    Dut_core.Threshold_tester.tester_majority ~n ~eps ~k:32 ~q:64
      ~calibration_trials:50 ~rng:(Dut_prng.Rng.split rng)
  in
  let and_tester = Dut_core.And_tester.tester ~n ~eps ~k:32 ~q:256 in
  let fixed_t =
    Dut_core.Threshold_tester.tester_fixed ~n ~eps ~k:32 ~q:128 ~t:4
  in
  let rbit =
    Dut_core.Rbit_tester.tester ~n ~eps ~k:32 ~q:64 ~bits:3
      ~calibration_trials:50 ~rng:(Dut_prng.Rng.split rng)
  in
  let single = Dut_core.Single_sample.tester ~n ~eps ~k:2048 ~bits:3 in
  let async =
    Dut_core.Async_tester.tester ~n ~eps ~rates:(Array.make 16 1.) ~tau:64.
      ~calibration_trials:50 ~rng:(Dut_prng.Rng.split rng)
  in
  let learning = Dut_core.Learning.make ~n:32 ~k:(32 * 50) ~q:4 in
  let learning_truth = Dut_dist.Pmf.uniform 32 in
  let g_exact = Dut_core.Exact.collision_acceptor ~ell:2 ~q:3 ~cutoff:1 in
  let small_hard = Dut_dist.Paninski.random ~ell:2 ~eps rng in
  let fwht_table = Array.init 4096 (fun i -> float_of_int (i land 7)) in
  let round tester () =
    tester.Dut_core.Evaluate.accepts (Dut_prng.Rng.split rng)
      (Dut_protocol.Network.of_paninski hard)
  in
  let samples_1k = Dut_dist.Paninski.draw_many hard rng 1000 in
  [
    Test.make ~name:"T1/T2.majority-round" (Staged.stage (round majority));
    Test.make ~name:"T2.and-round" (Staged.stage (round and_tester));
    Test.make ~name:"T3.fixed-threshold-round" (Staged.stage (round fixed_t));
    Test.make ~name:"T4.learning-round"
      (Staged.stage (fun () ->
           Dut_core.Learning.l1_error learning (Dut_prng.Rng.split rng)
             ~truth:learning_truth));
    Test.make ~name:"T5.collision-statistic-1k"
      (Staged.stage (fun () -> Dut_core.Local_stat.collisions samples_1k));
    Test.make ~name:"T6.rbit-round" (Staged.stage (round rbit));
    Test.make ~name:"T7.async-round" (Staged.stage (round async));
    Test.make ~name:"T10.single-sample-round" (Staged.stage (round single));
    Test.make ~name:"F1/T8/T11.exact-nu"
      (Staged.stage (fun () -> Dut_core.Exact.nu g_exact small_hard));
    Test.make ~name:"F1.lemma41-fourier-diff"
      (Staged.stage (fun () -> Dut_core.Exact.diff_fourier g_exact small_hard));
    Test.make ~name:"F2.moment-a_r-exact"
      (Staged.stage (fun () ->
           Dut_boolcube.Even_cover.moment_a_r_exact ~m:4 ~q:4 ~r:1 ~power:2));
    Test.make ~name:"F3.fwht-4096"
      (Staged.stage (fun () ->
           Dut_boolcube.Fourier.wht_in_place (Array.copy fwht_table)));
    Test.make ~name:"F4.paninski-draw-1k"
      (Staged.stage (fun () -> Dut_dist.Paninski.draw_many hard rng 1000));
    (let target = Dut_dist.Families.zipf ~n ~s:1. in
     let reduction = Dut_testers.Identity.make ~target ~eps in
     Test.make ~name:"T12.identity-flatten-1k"
       (Staged.stage (fun () ->
            for _ = 1 to 1000 do
              ignore
                (Dut_testers.Identity.map_sample reduction rng
                   (Dut_prng.Rng.int rng n))
            done)));
    (let graph = Dut_netsim.Graph.grid 6 6 in
     let local =
       Dut_netsim.Local_tester.make ~graph ~n ~eps ~q:64 ~calibration_trials:50
         ~rng:(Dut_prng.Rng.split rng)
     in
     Test.make ~name:"T13.local-model-round"
       (Staged.stage (fun () ->
            Dut_netsim.Local_tester.run local (Dut_prng.Rng.split rng)
              (Dut_protocol.Network.of_paninski hard))));
    Test.make ~name:"A1.calibration-200"
      (Staged.stage (fun () ->
           Dut_core.Threshold_tester.tester_majority ~n ~eps ~k:32 ~q:64
             ~calibration_trials:200 ~rng:(Dut_prng.Rng.split rng)));
  ]

let run_kernels () =
  let tests = kernel_tests () in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  print_endline "== kernel micro-benchmarks (Bechamel, ns/run) ==";
  List.iter
    (fun test ->
      (* One measurement table and one OLS analysis per element list,
         not a fresh singleton table per element. *)
      let elts = Test.elements test in
      let tbl = Hashtbl.create (List.length elts) in
      List.iter
        (fun elt ->
          Hashtbl.replace tbl (Test.Elt.name elt)
            (Benchmark.run cfg Instance.[ monotonic_clock ] elt))
        elts;
      let results = Analyze.all ols Instance.monotonic_clock tbl in
      List.iter
        (fun elt ->
          let name = Test.Elt.name elt in
          let estimate =
            match Hashtbl.find_opt results name with
            | None -> None
            | Some ols_result -> (
                match Analyze.OLS.estimates ols_result with
                | Some (e :: _) when not (Float.is_nan e) -> Some e
                | Some _ | None -> None)
          in
          match estimate with
          | Some ns -> Printf.printf "%-28s %14.1f ns/run\n%!" name ns
          | None -> Printf.printf "%-28s %14s\n%!" name "n/a")
        elts)
    tests

(* -- Part 3: engine hot-path before/after wall-clock -------------------- *)

(* The three heaviest fast-profile experiment kernels (by measured
   elapsed time of a full `run-all`). *)
let engine_bench_ids = [ "A1-ablation"; "T13-local-model"; "T20-open-problem" ]

(* The engine/stat counters each leg records, on the shared Dut_obs
   vocabulary — the same names the run manifest and `--metrics` print,
   so results/bench_engine.json and a trace describe one world. *)
let tracked_counters =
  [
    "mc.trials_used";
    "mc.adaptive_early_stops";
    "search.probes";
    "search.exact_hits";
    "scratch.borrows";
    "scratch.reuse_hits";
  ]

type meas = {
  seconds : float;
  trials : int;
  minor_words : float;
  counters : (string * int) list;  (* tracked_counters deltas, same order *)
}

(* Wall-clock, Monte-Carlo trials executed, and minor-heap words
   allocated on the submitting domain (jobs is clamped to the host's
   core count, so on a single-core runner this is all allocation).
   Counters are measured as before/after deltas of the process-wide
   Dut_obs totals — the runs are quiescent at both read points. *)
let instrumented run =
  let base =
    List.map (fun n -> (n, Dut_obs.Metrics.value n)) tracked_counters
  in
  let mw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  ignore (run ());
  let seconds = Unix.gettimeofday () -. t0 in
  let counters =
    List.map (fun (n, v0) -> (n, Dut_obs.Metrics.value n - v0)) base
  in
  {
    seconds;
    trials = List.assoc "mc.trials_used" counters;
    minor_words = Gc.minor_words () -. mw0;
    counters;
  }

(* "before" is the fixed-budget reproduction mode (`--no-adaptive
   --cold-search`): fixed trial budgets and cold critical searches, on
   the same kernels as "after". "after" is the current default,
   adaptive stopping plus warm-started searches. *)
let bench_config ~quick ~after =
  (* 60, not lower: very noisy probes make the cold critical searches in
     the "before" leg wander far past the true threshold, which costs
     more wall-clock than the smaller per-probe budget saves. *)
  let trials = if quick then Some 60 else None in
  Dut_experiments.Config.make ?trials ~adaptive:after ~warm_start:after
    Dut_experiments.Config.Fast

let run_experiment cfg exp =
  Dut_engine.Parallel.set_default_jobs cfg.Dut_experiments.Config.jobs;
  instrumented (fun () -> exp.Dut_experiments.Exp.run cfg)

let run_all cfg =
  Dut_engine.Parallel.set_default_jobs cfg.Dut_experiments.Config.jobs;
  let devnull = open_out Filename.null in
  Fun.protect
    ~finally:(fun () -> close_out devnull)
    (fun () ->
      instrumented (fun () ->
          Dut_experiments.Runner.run_all_to_channel ~timings:false cfg devnull))

let engine_json_path = Filename.concat "results" "bench_engine.json"

(* Minor-heap words allocated per Monte-Carlo trial — the figure the
   allocation gate (`--gate`) budgets. Zero trials (a bench leg that
   only replays memoized results) reads as zero words per trial. *)
let words_per_trial m =
  if m.trials <= 0 then 0. else m.minor_words /. float_of_int m.trials

let write_engine_json ~quick ~jobs ~all_before ~all_after rows =
  if not (Sys.file_exists "results") then Sys.mkdir "results" 0o755;
  let oc = open_out engine_json_path in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"engine-hotpath\",\n\
    \  \"profile\": \"fast\",\n\
    \  \"seed\": 2019,\n\
    \  \"quick\": %b,\n\
    \  \"jobs\": %d,\n\
    \  \"cores_available\": %d,\n\
    \  \"run_all\": { \"before_seconds\": %.3f, \"after_seconds\": %.3f, \
     \"speedup\": %.3f },\n\
    \  \"experiments\": [\n"
    quick jobs
    (Domain.recommended_domain_count ())
    all_before.seconds all_after.seconds
    (all_before.seconds /. all_after.seconds);
  let counters_obj meas =
    Dut_obs.Json.to_string
      (Dut_obs.Json.Obj
         (List.map (fun (n, v) -> (n, Dut_obs.Json.int v)) meas.counters))
  in
  List.iteri
    (fun i (id, before, after) ->
      Printf.fprintf oc
        "    { \"id\": %S, \"before_seconds\": %.3f, \"after_seconds\": %.3f, \
         \"speedup\": %.3f,\n\
        \      \"trials_before\": %d, \"trials_after\": %d, \
         \"minor_words_before\": %.0f, \"minor_words_after\": %.0f,\n\
        \      \"words_per_trial_before\": %.1f, \"words_per_trial_after\": \
         %.1f,\n\
        \      \"counters_before\": %s,\n\
        \      \"counters_after\": %s }%s\n"
        id before.seconds after.seconds
        (before.seconds /. after.seconds)
        before.trials after.trials before.minor_words after.minor_words
        (words_per_trial before) (words_per_trial after) (counters_obj before)
        (counters_obj after)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc

let bench_engine ~quick () =
  let cfg_before = bench_config ~quick ~after:false in
  let cfg_after = bench_config ~quick ~after:true in
  Printf.printf
    "== engine: fixed-budget/cold-search vs adaptive/warm-start wall-clock \
     (fast profile%s, jobs=%d, %d cores) ==\n\
     %!"
    (if quick then ", quick" else "")
    cfg_after.jobs
    (Domain.recommended_domain_count ());
  let rows =
    List.map
      (fun id ->
        match Dut_experiments.Registry.find id with
        | None -> failwith ("bench_engine: unknown experiment " ^ id)
        | Some exp ->
            let before = run_experiment cfg_before exp in
            let after = run_experiment cfg_after exp in
            Printf.printf
              "%-18s before %7.2fs (%7d trials, %9.0f w/trial)   after %7.2fs \
               (%7d trials, %9.0f w/trial)   speedup %5.2fx\n\
               %!"
              id before.seconds before.trials (words_per_trial before)
              after.seconds after.trials (words_per_trial after)
              (before.seconds /. after.seconds);
            (id, before, after))
      engine_bench_ids
  in
  let all_before = run_all cfg_before in
  let all_after = run_all cfg_after in
  Printf.printf "%-18s before %7.2fs   after %7.2fs   speedup %5.2fx\n%!"
    "run-all" all_before.seconds all_after.seconds
    (all_before.seconds /. all_after.seconds);
  Dut_engine.Parallel.set_default_jobs (Dut_engine.Parallel.env_jobs ());
  write_engine_json ~quick ~jobs:cfg_after.jobs ~all_before ~all_after rows;
  print_endline ("wrote " ^ engine_json_path)

(* -- Stream ingest bench (`--stream`) ----------------------------------- *)

module Sketch = Dut_stream.Sketch
module Ingest = Dut_stream.Ingest

let stream_json_path = Filename.concat "results" "bench_stream.json"

(* The budget ladder the throughput is measured on: the exact
   histogram, two hashed histograms, and two AMS widths — enough to see
   how the per-sample cost moves with sketch size (AMS pays one hash
   per counter per sample, so its cost is linear in the budget). *)
let stream_bench_rows n =
  [
    (Sketch.Hist, Sketch.exact_budget ~n);
    (Sketch.Hist, 72);
    (Sketch.Hist, 24);
    (Sketch.Ams, 40);
    (Sketch.Ams, 16);
  ]

type stream_meas = {
  s_kind : Sketch.kind;
  s_budget : int;
  s_words : int;
  s_samples : int;
  s_seconds : float;
  s_chunks : int;
}

let bench_stream ~quick () =
  let n = 256 in
  let seed = 2019 in
  let chunk = 4096 in
  let jobs = Dut_engine.Pool.effective_jobs (Dut_engine.Parallel.env_jobs ()) in
  let total = if quick then 1 lsl 18 else 1 lsl 22 in
  let rng = Dut_prng.Rng.create seed in
  let block = Array.init (1 lsl 14) (fun _ -> Dut_prng.Rng.int rng n) in
  Printf.printf
    "== stream: ingest throughput per sketch budget (n=%d, chunk=%d, %d \
     samples%s, jobs=%d) ==\n\
     %!"
    n chunk total
    (if quick then ", quick" else "")
    jobs;
  let rows =
    List.map
      (fun (kind, budget) ->
        let cfg = Sketch.config ~kind ~n ~budget_words:budget ~seed in
        let cum = ref (Sketch.create cfg) in
        let ing =
          Ingest.create ~jobs ~chunk
            ~on_chunk:(fun sk -> cum := Sketch.merge !cum sk)
            cfg
        in
        let t0 = Unix.gettimeofday () in
        let fed = ref 0 in
        while !fed < total do
          Ingest.feed_array ing block;
          fed := !fed + Array.length block
        done;
        Ingest.flush ing;
        let seconds = Unix.gettimeofday () -. t0 in
        let m =
          {
            s_kind = kind;
            s_budget = budget;
            s_words = Sketch.words_used !cum;
            s_samples = Ingest.samples_fed ing;
            s_seconds = seconds;
            s_chunks = Ingest.chunks_emitted ing;
          }
        in
        Printf.printf
          "%-4s budget %4d   %9.2e samples/s   %.6f words/sample   (%d words \
           used, %.2fs)\n\
           %!"
          (Sketch.kind_to_string kind)
          budget
          (float_of_int m.s_samples /. seconds)
          (float_of_int m.s_words /. float_of_int m.s_samples)
          m.s_words seconds;
        m)
      (stream_bench_rows n)
  in
  if not (Sys.file_exists "results") then Sys.mkdir "results" 0o755;
  let oc = open_out stream_json_path in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"stream-ingest\",\n\
    \  \"seed\": %d,\n\
    \  \"quick\": %b,\n\
    \  \"jobs\": %d,\n\
    \  \"n\": %d,\n\
    \  \"chunk\": %d,\n\
    \  \"rows\": [\n"
    seed quick jobs n chunk;
  List.iteri
    (fun i m ->
      Printf.fprintf oc
        "    { \"sketch\": %S, \"budget_words\": %d, \"words_used\": %d, \
         \"samples\": %d, \"chunks\": %d, \"seconds\": %.4f, \
         \"samples_per_sec\": %.1f, \"words_per_sample\": %.8f }%s\n"
        (Sketch.kind_to_string m.s_kind)
        m.s_budget m.s_words m.s_samples m.s_chunks m.s_seconds
        (float_of_int m.s_samples /. m.s_seconds)
        (float_of_int m.s_words /. float_of_int m.s_samples)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  print_endline ("wrote " ^ stream_json_path)

(* -- Part 4: per-kernel before/after (`results/bench_kernels.json`) ----- *)

(* Isolated rows for the three kernels the engine overhaul rewrote —
   the WHT, the alias block draw, and the counting referee — each
   timed against the code shape it replaced, with the replaced shape
   reconstructed here (or, for the referee, the vote-vector round that
   stays the general-rule path) so the comparison survives in one
   binary. Every row asserts the two legs produce identical values
   before it is trusted with a clock. *)

let kernels_json_path = Filename.concat "results" "bench_kernels.json"

(* The pre-overhaul transform: plain h-doubling butterflies, bounds
   checks on every access, no cache blocking. *)
let wht_reference a =
  let n = Array.length a in
  let h = ref 1 in
  while !h < n do
    let h2 = !h * 2 in
    let i = ref 0 in
    while !i < n do
      for j = !i to !i + !h - 1 do
        let x = a.(j) and y = a.(j + !h) in
        a.(j) <- x +. y;
        a.(j + !h) <- x -. y
      done;
      i := !i + h2
    done;
    h := h2
  done

type kernel_meas = {
  k_name : string;
  k_reps : int;
  k_before : float;  (* seconds for all reps *)
  k_after : float;
  k_words_before : float;  (* minor words per rep *)
  k_words_after : float;
}

let timed_alloc reps f =
  let mw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  let seconds = Unix.gettimeofday () -. t0 in
  (seconds, (Gc.minor_words () -. mw0) /. float_of_int reps)

let kernel_row name reps ~before ~after =
  let k_before, k_words_before = timed_alloc reps before in
  let k_after, k_words_after = timed_alloc reps after in
  { k_name = name; k_reps = reps; k_before; k_after; k_words_before;
    k_words_after }

let bench_kernel_rows ~quick () =
  let rng = Dut_prng.Rng.create 2019 in
  (* WHT on a slab 8x the cache block, so the blocked schedule shows. *)
  let wht_n = 1 lsl 15 in
  let wht_src = Array.init wht_n (fun i -> float_of_int ((i * 37) land 63)) in
  let wht_buf = Array.make wht_n 0. in
  let ref_buf = Array.copy wht_src in
  Array.blit wht_src 0 wht_buf 0 wht_n;
  wht_reference ref_buf;
  Dut_boolcube.Fourier.wht_in_place wht_buf;
  if ref_buf <> wht_buf then
    failwith "bench kernels: blocked WHT differs from the reference";
  (* Alias draws: the scalar-draw Array.init loop the old [draw_many]
     ran, vs the batched [draw_block] into one reused buffer. Both legs
     must emit the same stream from the same seed. *)
  let weights = Array.init 256 (fun i -> float_of_int (1 + (i land 15))) in
  let total = Array.fold_left ( +. ) 0. weights in
  let pmf = Dut_dist.Pmf.create (Array.map (fun w -> w /. total) weights) in
  let sampler = Dut_dist.Sampler.of_pmf pmf in
  let draws = 4096 in
  let draw_buf = Array.make draws 0 in
  let r1 = Dut_prng.Rng.create 7 and r2 = Dut_prng.Rng.create 7 in
  let scalar_draws =
    Array.init draws (fun _ -> Dut_dist.Sampler.draw sampler r1)
  in
  Dut_dist.Sampler.draw_block sampler r2 draw_buf;
  if scalar_draws <> draw_buf then
    failwith "bench kernels: draw_block differs from scalar draws";
  (* Referee: the vote-vector [round] (materialises the transcript)
     vs the counting [round_accept], same player logic. *)
  let hard = Dut_dist.Paninski.random ~ell:7 ~eps:0.3 rng in
  let source = Dut_protocol.Network.of_paninski hard in
  let k = 64 and q = 64 in
  let player ~index:_ _coins samples =
    let ones = ref 0 in
    Array.iter (fun s -> ones := !ones + (s land 1)) samples;
    2 * !ones <= Array.length samples
  in
  let rule = Dut_protocol.Rule.Majority in
  for seed = 100 to 120 do
    let rng () = Dut_prng.Rng.create seed in
    let t =
      Dut_protocol.Network.round ~rng:(rng ()) ~source ~k ~q ~player ~rule
    in
    if
      t.accept
      <> Dut_protocol.Network.round_accept ~rng:(rng ()) ~source ~k ~q
           ~player ~rule
    then failwith "bench kernels: round_accept differs from round"
  done;
  let wht_reps = if quick then 20 else 100 in
  let draw_reps = if quick then 400 else 4000 in
  let round_reps = if quick then 50 else 500 in
  let round_rng = Dut_prng.Rng.create 11 in
  [
    kernel_row
      (Printf.sprintf "wht-%d" wht_n)
      wht_reps
      ~before:(fun () ->
        Array.blit wht_src 0 ref_buf 0 wht_n;
        wht_reference ref_buf)
      ~after:(fun () ->
        Array.blit wht_src 0 wht_buf 0 wht_n;
        Dut_boolcube.Fourier.wht_in_place wht_buf);
    kernel_row
      (Printf.sprintf "alias-draw-%d" draws)
      draw_reps
      ~before:(fun () ->
        ignore (Array.init draws (fun _ -> Dut_dist.Sampler.draw sampler rng)))
      ~after:(fun () -> Dut_dist.Sampler.draw_block sampler rng draw_buf);
    kernel_row
      (Printf.sprintf "referee-count-k%d-q%d" k q)
      round_reps
      ~before:(fun () ->
        ignore
          (Dut_protocol.Network.round ~rng:(Dut_prng.Rng.split round_rng)
             ~source ~k ~q ~player ~rule))
      ~after:(fun () ->
        ignore
          (Dut_protocol.Network.round_accept ~rng:(Dut_prng.Rng.split round_rng)
             ~source ~k ~q ~player ~rule));
  ]

let bench_kernels_io ~quick () =
  Printf.printf "== kernels: rewritten hot loops vs the shapes they replaced \
                 ==\n%!";
  let rows = bench_kernel_rows ~quick () in
  List.iter
    (fun m ->
      Printf.printf
        "%-24s %4d reps   before %8.4fs (%9.0f w/call)   after %8.4fs \
         (%9.0f w/call)   speedup %5.2fx\n\
         %!"
        m.k_name m.k_reps m.k_before m.k_words_before m.k_after m.k_words_after
        (m.k_before /. m.k_after))
    rows;
  if not (Sys.file_exists "results") then Sys.mkdir "results" 0o755;
  let oc = open_out kernels_json_path in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"kernels\",\n\
    \  \"seed\": 2019,\n\
    \  \"quick\": %b,\n\
    \  \"rows\": [\n"
    quick;
  List.iteri
    (fun i m ->
      Printf.fprintf oc
        "    { \"kernel\": %S, \"reps\": %d, \"before_seconds\": %.4f, \
         \"after_seconds\": %.4f, \"speedup\": %.3f, \
         \"minor_words_per_call_before\": %.0f, \
         \"minor_words_per_call_after\": %.0f }%s\n"
        m.k_name m.k_reps m.k_before m.k_after
        (m.k_before /. m.k_after)
        m.k_words_before m.k_words_after
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  print_endline ("wrote " ^ kernels_json_path)

(* -- Schema check for results/bench_engine.json (`--check`) ------------- *)

(* The JSON reader lives in Dut_obs.Json now (the same one obs-report
   uses on manifests and traces); this harness only keeps the schema
   assertions. *)
open Dut_obs.Json

let check_engine_json () =
  let fail msg =
    Printf.eprintf "%s: %s\n" engine_json_path msg;
    exit 1
  in
  if not (Sys.file_exists engine_json_path) then fail "missing";
  let ic = open_in_bin engine_json_path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match parse contents with
  | exception Malformed msg -> fail msg
  | root -> (
      try
        if want_str root "benchmark" <> "engine-hotpath" then
          raise (Malformed "benchmark: expected \"engine-hotpath\"");
        ignore (want_str root "profile");
        ignore (want_num root "seed");
        ignore (want_bool root "quick");
        if want_num root "jobs" < 1. then raise (Malformed "jobs < 1");
        if want_num root "cores_available" < 1. then
          raise (Malformed "cores_available < 1");
        let check_pair obj =
          List.iter
            (fun f ->
              if want_num obj f < 0. then
                raise (Malformed (f ^ ": negative time")))
            [ "before_seconds"; "after_seconds" ];
          ignore (want_num obj "speedup")
        in
        (* Every tracked Dut_obs counter must appear, non-negative, and
           the counters' trials entry must agree with the legacy
           trials_{before,after} fields (one vocabulary, no drift). *)
        let check_counters e which =
          let obj = field e ("counters_" ^ which) in
          List.iter
            (fun name ->
              if want_num obj name < 0. then
                raise (Malformed (name ^ ": negative counter")))
            tracked_counters;
          if want_num obj "mc.trials_used" <> want_num e ("trials_" ^ which)
          then
            raise
              (Malformed
                 (Printf.sprintf
                    "counters_%s[mc.trials_used] disagrees with trials_%s"
                    which which))
        in
        (* words_per_trial must be the quotient it claims to be, up to
           the %.1f rounding it was printed with. *)
        let check_words_per_trial e which =
          let wpt = want_num e ("words_per_trial_" ^ which) in
          if wpt < 0. then
            raise (Malformed ("words_per_trial_" ^ which ^ ": negative"));
          let trials = want_num e ("trials_" ^ which) in
          let expect =
            if trials <= 0. then 0.
            else want_num e ("minor_words_" ^ which) /. trials
          in
          if Float.abs (wpt -. expect) > 0.06 +. (1e-9 *. expect) then
            raise
              (Malformed
                 (Printf.sprintf
                    "words_per_trial_%s: %g but minor_words/trials is %g" which
                    wpt expect))
        in
        check_pair (field root "run_all");
        (match field root "experiments" with
        | Arr [] -> raise (Malformed "experiments: empty")
        | Arr exps ->
            List.iter
              (fun e ->
                ignore (want_str e "id");
                check_pair e;
                List.iter
                  (fun f ->
                    if want_num e f < 0. then
                      raise (Malformed (f ^ ": negative count")))
                  [
                    "trials_before"; "trials_after"; "minor_words_before";
                    "minor_words_after";
                  ];
                check_counters e "before";
                check_counters e "after";
                check_words_per_trial e "before";
                check_words_per_trial e "after")
              exps
        | _ -> raise (Malformed "experiments: expected array"));
        Printf.printf "%s: schema ok\n" engine_json_path
      with Malformed msg -> fail msg)

(* Validated only when present: the stream bench is optional (run with
   `--stream`), but a written file must conform — CI runs
   `--stream --quick` first, so there it is always checked. *)
let check_stream_json () =
  if Sys.file_exists stream_json_path then begin
    let fail msg =
      Printf.eprintf "%s: %s\n" stream_json_path msg;
      exit 1
    in
    let ic = open_in_bin stream_json_path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match parse contents with
    | exception Malformed msg -> fail msg
    | root -> (
        try
          if want_str root "benchmark" <> "stream-ingest" then
            raise (Malformed "benchmark: expected \"stream-ingest\"");
          ignore (want_num root "seed");
          ignore (want_bool root "quick");
          if want_num root "jobs" < 1. then raise (Malformed "jobs < 1");
          if want_num root "n" < 1. then raise (Malformed "n < 1");
          if want_num root "chunk" < 1. then raise (Malformed "chunk < 1");
          (match field root "rows" with
          | Arr [] -> raise (Malformed "rows: empty")
          | Arr rows ->
              List.iter
                (fun r ->
                  (match want_str r "sketch" with
                  | "hist" | "ams" -> ()
                  | s -> raise (Malformed ("unknown sketch " ^ s)));
                  let budget = want_num r "budget_words" in
                  let words = want_num r "words_used" in
                  if budget < 1. then raise (Malformed "budget_words < 1");
                  if words < 1. then raise (Malformed "words_used < 1");
                  if words > budget then
                    raise
                      (Malformed
                         "words_used exceeds budget_words: the memory bound \
                          is broken");
                  if want_num r "samples" < 1. then
                    raise (Malformed "samples < 1");
                  if want_num r "chunks" < 1. then
                    raise (Malformed "chunks < 1");
                  List.iter
                    (fun f ->
                      if want_num r f < 0. then
                        raise (Malformed (f ^ ": negative")))
                    [ "seconds"; "samples_per_sec"; "words_per_sample" ])
                rows
          | _ -> raise (Malformed "rows: expected array"));
          Printf.printf "%s: schema ok\n" stream_json_path
        with Malformed msg -> fail msg)
  end

(* Like the stream bench: validated only when present (CI writes it via
   `--engine --quick` before checking). *)
let check_kernels_json () =
  if Sys.file_exists kernels_json_path then begin
    let fail msg =
      Printf.eprintf "%s: %s\n" kernels_json_path msg;
      exit 1
    in
    let ic = open_in_bin kernels_json_path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match parse contents with
    | exception Malformed msg -> fail msg
    | root -> (
        try
          if want_str root "benchmark" <> "kernels" then
            raise (Malformed "benchmark: expected \"kernels\"");
          ignore (want_num root "seed");
          ignore (want_bool root "quick");
          (match field root "rows" with
          | Arr [] -> raise (Malformed "rows: empty")
          | Arr rows ->
              List.iter
                (fun r ->
                  ignore (want_str r "kernel");
                  if want_num r "reps" < 1. then raise (Malformed "reps < 1");
                  List.iter
                    (fun f ->
                      if want_num r f < 0. then
                        raise (Malformed (f ^ ": negative")))
                    [
                      "before_seconds"; "after_seconds"; "speedup";
                      "minor_words_per_call_before";
                      "minor_words_per_call_after";
                    ])
                rows
          | _ -> raise (Malformed "rows: expected array"));
          Printf.printf "%s: schema ok\n" kernels_json_path
        with Malformed msg -> fail msg)
  end

(* -- Part 6: service throughput (`--service`) --------------------------- *)

(* Forks one fleet per shard count and hammers its public socket with C
   concurrent clients sending the same query set twice — a cold wave
   then a warm one — so each row carries both raw QPS and the cache's
   effect on it. Latency percentiles are server-side (the
   service.request_ns histogram published in the final summary), not
   client timestamps, so they match what a live `dut obs-report
   --manifest` shows. Must run before anything spins up the engine
   pool: the fleet is forked, and forking after OCaml 5 domains exist
   is unsafe — which is why `--service` is its own dispatch branch and
   not part of the full run. *)
let service_json_path = Filename.concat "results" "bench_service.json"

let read_json_opt path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match parse contents with exception Malformed _ -> None | j -> Some j
  end

type service_row = {
  v_shards : int;
  v_requests : int;
  v_seconds : float;
  v_qps : float;
  v_p50 : float;
  v_p95 : float;
  v_p99 : float;
  v_max : float;
  v_hit : float option;
}

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* One wave: every client connects, writes its whole batch and reads
   until it has one response line per request. Single-threaded over
   Dut_service.Poll, mirroring the server's own loop, so hundreds of
   concurrent clients cost one process. *)
let service_drive ~socket ~clients ~per_client ~line =
  let conns =
    Array.init clients (fun c ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        Unix.set_nonblock fd;
        let b = Buffer.create (per_client * 96) in
        for j = 0 to per_client - 1 do
          Buffer.add_string b (line c j);
          Buffer.add_char b '\n'
        done;
        (fd, Buffer.to_bytes b, ref 0, ref 0))
  in
  let chunk = Bytes.create 65536 in
  let unfinished () =
    Array.to_list conns |> List.filter (fun (_, _, _, got) -> !got < per_client)
  in
  let rec loop () =
    match unfinished () with
    | [] -> ()
    | pending ->
        let pending = Array.of_list pending in
        let entries =
          Array.map
            (fun (fd, out, written, _) ->
              if !written < Bytes.length out then (fd, Dut_service.Poll.rw)
              else (fd, Dut_service.Poll.rd))
            pending
        in
        let ready = Dut_service.Poll.wait ~timeout_ms:5000 entries in
        Array.iteri
          (fun i (fd, out, written, got) ->
            (if ready.(i).Dut_service.Poll.write && !written < Bytes.length out
             then
               match
                 Unix.single_write fd out !written
                   (Bytes.length out - !written)
               with
               | n -> written := !written + n
               | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
                   ());
            if ready.(i).Dut_service.Poll.read then
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> failwith "service bench: server closed the connection"
              | n ->
                  for k = 0 to n - 1 do
                    if Bytes.get chunk k = '\n' then incr got
                  done
              | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ())
          pending;
        loop ()
  in
  loop ();
  Array.iter (fun (fd, _, _, _) -> Unix.close fd) conns

let service_bench_row ~jobs ~shards ~clients ~per_client =
  let dir = Filename.temp_file "dut_bench_service" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "sock" in
  let summary = Filename.concat dir "summary.json" in
  let pid =
    match Unix.fork () with
    | 0 -> (
        match
          Dut_service.Shard.serve_fleet ~shards
            {
              Dut_service.Server.socket;
              jobs;
              cache =
                Some
                  (Dut_service.Memo.create
                     ~dir:(Some (Filename.concat dir "memo"))
                     ());
              deadline_s = None;
              max_pending = 2 * clients * per_client;
              summary_path = summary;
            }
        with
        | () -> Unix._exit 0
        | exception e ->
            Printf.eprintf "service bench server: %s\n%!"
              (Printexc.to_string e);
            Unix._exit 1)
    | pid -> pid
  in
  let rec await_ready tries =
    if tries = 0 then failwith "service bench: server did not come up";
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        Unix.sleepf 0.025;
        await_ready (tries - 1)
  in
  await_ready 400;
  (* Distinct cheap bound queries: wave 1 is all misses, wave 2 all
     hits, so cache_hit_ratio lands at ~0.5 by construction. *)
  let line c j =
    Printf.sprintf
      "{\"id\":%d,\"kind\":\"bound\",\"name\":\"thm11_lower\",\"params\":{\"n\":%d,\"k\":64,\"eps\":0.25}}"
      j
      (1024 + (8 * ((c * per_client) + j)))
  in
  let t0 = Unix.gettimeofday () in
  service_drive ~socket ~clients ~per_client ~line;
  service_drive ~socket ~clients ~per_client ~line;
  let seconds = Unix.gettimeofday () -. t0 in
  let requests = 2 * clients * per_client in
  Unix.kill pid Sys.sigint;
  ignore (Unix.waitpid [] pid);
  let root =
    match read_json_opt summary with
    | Some j -> j
    | None -> failwith ("service bench: no summary at " ^ summary)
  in
  (* shards=1 degenerates to a plain server (dut-service/3, stats at
     top level); fleets publish dut-service-fleet/1 with the merged
     stats under "aggregate". *)
  let stats =
    match field_opt root "aggregate" with Some a -> a | None -> root
  in
  let lat f =
    match field_opt stats "latency_ns" with
    | Some l -> ( try want_num l f with Malformed _ -> 0.)
    | None -> 0.
  in
  let hit =
    match field_opt stats "cache_hit_ratio" with
    | Some (Num r) -> Some r
    | _ -> None
  in
  rm_rf dir;
  let row =
    {
      v_shards = shards;
      v_requests = requests;
      v_seconds = seconds;
      v_qps = float_of_int requests /. seconds;
      v_p50 = lat "p50";
      v_p95 = lat "p95";
      v_p99 = lat "p99";
      v_max = lat "max";
      v_hit = hit;
    }
  in
  Printf.printf
    "shards %d   %6d req   %9.1f qps   p50 %6.0fns p95 %6.0fns p99 %6.0fns   \
     hit %s   (%.2fs)\n\
     %!"
    row.v_shards row.v_requests row.v_qps row.v_p50 row.v_p95 row.v_p99
    (match row.v_hit with
    | Some h -> Printf.sprintf "%.2f" h
    | None -> "n/a")
    row.v_seconds;
  row

let bench_service ~quick () =
  let jobs =
    Dut_engine.Pool.effective_jobs (Dut_engine.Parallel.env_jobs ())
  in
  let clients = if quick then 64 else 256 in
  let per_client = if quick then 8 else 32 in
  let shard_counts = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  Printf.printf
    "## service bench: %d clients x %d requests x 2 waves, jobs=%d\n%!"
    clients per_client jobs;
  let rows =
    List.map
      (fun shards -> service_bench_row ~jobs ~shards ~clients ~per_client)
      shard_counts
  in
  if not (Sys.file_exists "results") then Sys.mkdir "results" 0o755;
  let oc = open_out service_json_path in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"service\",\n\
    \  \"quick\": %b,\n\
    \  \"jobs\": %d,\n\
    \  \"clients\": %d,\n\
    \  \"requests_per_client\": %d,\n\
    \  \"rows\": [\n"
    quick jobs clients per_client;
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"shards\": %d, \"requests\": %d, \"seconds\": %.4f, \
         \"qps\": %.1f, \"latency_ns\": { \"p50\": %.0f, \"p95\": %.0f, \
         \"p99\": %.0f, \"max\": %.0f }, \"cache_hit_ratio\": %s }%s\n"
        r.v_shards r.v_requests r.v_seconds r.v_qps r.v_p50 r.v_p95 r.v_p99
        r.v_max
        (match r.v_hit with
        | Some h -> Printf.sprintf "%.4f" h
        | None -> "null")
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  print_endline ("wrote " ^ service_json_path)

(* Validated only when present, like the stream/kernel jsons. *)
let check_service_json () =
  if Sys.file_exists service_json_path then begin
    let fail msg =
      Printf.eprintf "%s: %s\n" service_json_path msg;
      exit 1
    in
    let ic = open_in_bin service_json_path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match parse contents with
    | exception Malformed msg -> fail msg
    | root -> (
        try
          if want_str root "benchmark" <> "service" then
            raise (Malformed "benchmark: expected \"service\"");
          ignore (want_bool root "quick");
          if want_num root "jobs" < 1. then raise (Malformed "jobs < 1");
          if want_num root "clients" < 1. then raise (Malformed "clients < 1");
          if want_num root "requests_per_client" < 1. then
            raise (Malformed "requests_per_client < 1");
          (match field root "rows" with
          | Arr [] -> raise (Malformed "rows: empty")
          | Arr rows ->
              List.iter
                (fun r ->
                  if want_num r "shards" < 1. then
                    raise (Malformed "shards < 1");
                  if want_num r "requests" < 1. then
                    raise (Malformed "requests < 1");
                  List.iter
                    (fun f ->
                      if want_num r f < 0. then
                        raise (Malformed (f ^ ": negative")))
                    [ "seconds"; "qps" ];
                  (match field r "latency_ns" with
                  | Obj _ as l ->
                      let p50 = want_num l "p50" in
                      let p95 = want_num l "p95" in
                      let p99 = want_num l "p99" in
                      if p50 < 0. then raise (Malformed "p50: negative");
                      if not (p50 <= p95 && p95 <= p99) then
                        raise
                          (Malformed
                             "latency percentiles not monotone (p50 <= p95 \
                              <= p99)")
                  | _ -> raise (Malformed "latency_ns: expected object"));
                  match field_opt r "cache_hit_ratio" with
                  | Some Null | None -> ()
                  | Some (Num v) when v >= 0. && v <= 1. -> ()
                  | Some _ ->
                      raise
                        (Malformed "cache_hit_ratio: expected 0..1 or null"))
                rows
          | _ -> raise (Malformed "rows: expected array"));
          Printf.printf "%s: schema ok\n" service_json_path
        with Malformed msg -> fail msg)
  end

(* -- Bench history (results/bench_history.jsonl) ------------------------ *)

(* One row appended per `--quick` bench run: the longitudinal record
   `dut obs-report --regressions` reads. Only quick runs append — the
   full-budget legs time a different workload, so their wall-clocks
   would not be comparable rows. A row carries only the benches that
   ran in this invocation: every other field is null (a `--stream`-only
   run has no engine numbers), never a stale figure read back from a
   json an earlier run left on disk, and the regression report skips
   nulls. [git] is described at process start, before the bench
   rewrites the tracked results/*.json and would make it read dirty. *)
let history_json_path = Filename.concat "results" "bench_history.jsonl"
let history_schema = "dut-bench-history/1"

type bench = Engine | Stream | Service

let append_history ~git ~ran =
  let read bench path =
    if List.mem bench ran then read_json_opt path else None
  in
  let engine = read Engine engine_json_path in
  let stream = read Stream stream_json_path in
  let service = read Service service_json_path in
  let num_field j obj f =
    match Option.bind j (fun j -> field_opt j obj) with
    | Some o -> ( try Some (want_num o f) with Malformed _ -> None)
    | None -> None
  in
  (* Max over the experiment rows: the gate-relevant per-trial
     allocation figure. *)
  let words_per_trial =
    match Option.bind engine (fun j -> field_opt j "experiments") with
    | Some (Dut_obs.Json.Arr exps) ->
        List.fold_left
          (fun acc e ->
            match want_num e "words_per_trial_after" with
            | w -> Some (Float.max w (Option.value ~default:0. acc))
            | exception Malformed _ -> acc)
          None exps
    | _ -> None
  in
  (* Best throughput across the sketch-budget ladder. *)
  let ingest_samples_per_s =
    match Option.bind stream (fun j -> field_opt j "rows") with
    | Some (Dut_obs.Json.Arr rows) ->
        List.fold_left
          (fun acc r ->
            match want_num r "samples_per_sec" with
            | s -> Some (Float.max s (Option.value ~default:0. acc))
            | exception Malformed _ -> acc)
          None rows
    | _ -> None
  in
  (* Best throughput across the shard-count ladder. *)
  let service_qps =
    match Option.bind service (fun j -> field_opt j "rows") with
    | Some (Dut_obs.Json.Arr rows) ->
        List.fold_left
          (fun acc r ->
            match want_num r "qps" with
            | q -> Some (Float.max q (Option.value ~default:0. acc))
            | exception Malformed _ -> acc)
          None rows
    | _ -> None
  in
  let jobs =
    let of_json j = try Some (want_num j "jobs") with Malformed _ -> None in
    match (Option.bind engine of_json, Option.bind stream of_json) with
    | Some j, _ | None, Some j -> j
    | None, None ->
        float_of_int
          (Dut_engine.Pool.effective_jobs (Dut_engine.Parallel.env_jobs ()))
  in
  let opt = function Some v -> Dut_obs.Json.Num v | None -> Dut_obs.Json.Null in
  let row =
    Dut_obs.Json.Obj
      [
        ("schema", Dut_obs.Json.Str history_schema);
        ("git", Dut_obs.Json.Str git);
        ("unix_time", Dut_obs.Json.Num (Float.round (Unix.time ())));
        ("jobs", Dut_obs.Json.Num jobs);
        ("run_all_wall_s", opt (num_field engine "run_all" "after_seconds"));
        ("run_all_speedup", opt (num_field engine "run_all" "speedup"));
        ("words_per_trial", opt words_per_trial);
        ("ingest_samples_per_s", opt ingest_samples_per_s);
        ("service_qps", opt service_qps);
      ]
  in
  if not (Sys.file_exists "results") then Sys.mkdir "results" 0o755;
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 history_json_path
  in
  output_string oc (Dut_obs.Json.to_string row);
  output_char oc '\n';
  close_out oc;
  print_endline ("appended " ^ history_json_path)

(* Validated only when present, like the stream/kernel jsons: every row
   must be a parseable dut-bench-history/1 object with sane numbers. *)
let check_history_jsonl () =
  if Sys.file_exists history_json_path then begin
    let fail msg =
      Printf.eprintf "%s: %s\n" history_json_path msg;
      exit 1
    in
    let ic = open_in history_json_path in
    let rec go i =
      match input_line ic with
      | exception End_of_file -> i
      | line -> (
          match parse line with
          | exception Malformed msg ->
              fail (Printf.sprintf "row %d: %s" i msg)
          | j ->
              (try
                 if want_str j "schema" <> history_schema then
                   raise (Malformed ("expected schema " ^ history_schema));
                 ignore (want_str j "git");
                 if want_num j "unix_time" < 0. then
                   raise (Malformed "unix_time: negative");
                 if want_num j "jobs" < 1. then raise (Malformed "jobs < 1");
                 List.iter
                   (fun f ->
                     match field_opt j f with
                     | Some Dut_obs.Json.Null | None -> ()
                     | Some (Dut_obs.Json.Num v) when v >= 0. -> ()
                     | Some _ -> raise (Malformed (f ^ ": expected number or null")))
                   [
                     "run_all_wall_s"; "run_all_speedup"; "words_per_trial";
                     "ingest_samples_per_s"; "service_qps";
                   ]
               with Malformed msg ->
                 fail (Printf.sprintf "row %d: %s" i msg));
              go (i + 1))
    in
    let rows = go 1 in
    close_in ic;
    Printf.printf "%s: schema ok (%d rows)\n" history_json_path (rows - 1)
  end

(* -- Allocation-regression gate (`--gate`) ------------------------------ *)

(* Compares the after-leg words-per-trial of a fresh `--engine --quick`
   run against the committed budget in results/alloc_budget.json and
   fails if any experiment allocates past it. The budget carries ~2x
   headroom over the measured figures: words/trial is a property of the
   code path, not the machine, so anything beyond noise means per-trial
   allocations crept back into a hot loop. *)
let budget_json_path = Filename.concat "results" "alloc_budget.json"

let gate_alloc () =
  let fail msg =
    Printf.eprintf "alloc gate: %s\n" msg;
    exit 1
  in
  let read path =
    if not (Sys.file_exists path) then fail (path ^ ": missing");
    let ic = open_in_bin path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match parse contents with
    | exception Malformed msg -> fail (path ^ ": " ^ msg)
    | root -> root
  in
  let engine = read engine_json_path in
  let budget = read budget_json_path in
  try
    if not (want_bool engine "quick") then
      fail
        (engine_json_path
       ^ ": not a --quick run; the budget is calibrated for `--engine \
          --quick` (fixed 60-trial probes)");
    let exps =
      match field engine "experiments" with
      | Arr exps -> exps
      | _ -> fail (engine_json_path ^ ": experiments: expected array")
    in
    let budgets =
      match field budget "budgets" with
      | Arr [] -> fail (budget_json_path ^ ": budgets: empty")
      | Arr budgets -> budgets
      | _ -> fail (budget_json_path ^ ": budgets: expected array")
    in
    let over = ref false in
    List.iter
      (fun b ->
        let id = want_str b "id" in
        let cap = want_num b "max_words_per_trial" in
        match
          List.find_opt (fun e -> want_str e "id" = id) exps
        with
        | None -> fail (id ^ ": budgeted but missing from bench_engine.json")
        | Some e ->
            let trials = want_num e "trials_after" in
            let wpt =
              if trials <= 0. then 0.
              else want_num e "minor_words_after" /. trials
            in
            let ok = wpt <= cap in
            if not ok then over := true;
            Printf.printf "%-18s %12.1f words/trial   budget %12.1f   %s\n%!"
              id wpt cap
              (if ok then "ok" else "EXCEEDED"))
      budgets;
    if !over then
      fail "per-trial allocation budget exceeded — a hot loop regressed"
    else print_endline "alloc gate: ok"
  with Malformed msg -> fail msg

let () =
  let git = Dut_obs.Manifest.git_describe () in
  let has flag = Array.exists (( = ) flag) Sys.argv in
  let value_after flag =
    let r = ref None in
    Array.iteri
      (fun i a -> if a = flag && i + 1 < Array.length Sys.argv then r := Some Sys.argv.(i + 1))
      Sys.argv;
    !r
  in
  if has "--check" then begin
    check_engine_json ();
    check_stream_json ();
    check_kernels_json ();
    check_service_json ();
    check_history_jsonl ()
  end
  else if has "--gate" then gate_alloc ()
  else if has "--service" then begin
    (* Own branch, never part of the full run: the fleet is forked, so
       this must happen before any Parallel.map creates pool domains. *)
    bench_service ~quick:(has "--quick") ();
    if has "--quick" then append_history ~git ~ran:[ Service ]
  end
  else if has "--stream" then begin
    bench_stream ~quick:(has "--quick") ();
    if has "--quick" then append_history ~git ~ran:[ Stream ]
  end
  else begin
    Dut_obs.Span.set_sink (value_after "--trace");
    let engine_only = has "--engine" in
    if not engine_only then begin
      regenerate_tables ();
      run_kernels ()
    end;
    bench_engine ~quick:(has "--quick") ();
    bench_kernels_io ~quick:(has "--quick") ();
    bench_stream ~quick:(has "--quick") ();
    if has "--quick" then append_history ~git ~ran:[ Engine; Stream ];
    if has "--metrics" then Dut_obs.Metrics.dump stderr;
    Dut_obs.Span.set_sink None
  end
