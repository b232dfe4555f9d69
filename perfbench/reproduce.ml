(* The paper-reproduction job, in the search workload's traced run: the
   whole registry through [Runner.run_all_to_channel], fast profile,
   config seed = the workload seed. It gives the experiments and engine
   layers; its cost depends too much on the seed to be a workload of its
   own (see README.md). The experiments are timed at jobs = 1, one after
   another, so each one's time is its own.

   Output check: the tables must be byte-identical to a run of the same
   seed at jobs = 2 (two experiments at a time on the engine's pool),
   and the exact claims must pass [Verifier.verify_all]. The jobs-2 run
   goes first, in a child process, so no domain exists in this process
   and the engine pool's counters come from the run where it works. *)

module Config = Dut_experiments.Config
module Runner = Dut_experiments.Runner

let jobs = 1
let check_jobs = 2
let config ~seed ~jobs = Config.make ~seed ~jobs Config.Fast

(* The run-all's inputs: the configuration and the registry. *)
let inputs ~seed = (config ~seed ~jobs, Dut_experiments.Registry.all)

let run_all cfg path =
  Out_channel.with_open_bin path (fun oc -> Runner.run_all_to_channel ~timings:false cfg oc)

(* Offset of the first byte where [a] and [b] differ, if they do. *)
let first_difference a b =
  let n = min (String.length a) (String.length b) in
  let rec go i =
    if i = n then if String.length a = String.length b then None else Some n
    else if a.[i] <> b.[i] then Some i
    else go (i + 1)
  in
  go 0

module J = Dut_obs.Json

let is_pool (k, _) = String.starts_with ~prefix:"pool." k

(* Child-process side of the check: the registry at jobs 2 into [path],
   and what the parent reports of that run into [path ^ ".json"]. *)
let check_run ~seed ~path =
  let snap0 = Dut_obs.Metrics.snapshot () in
  let r = run_all (config ~seed ~jobs:check_jobs) path in
  (* The engine pool only works at jobs 2: its counters come from here. *)
  let pool = List.filter is_pool (Spec.counter_deltas snap0 (Dut_obs.Metrics.snapshot ())) in
  let summary =
    J.Obj
      [
        ("wall_s", J.Num r.wall_seconds);
        ("summed_s", J.Num (List.fold_left (fun a (o : Runner.outcome) -> a +. o.seconds) 0. r.experiments));
        ( "failed",
          J.Arr
            (List.filter_map
               (fun (o : Runner.outcome) -> if Runner.failed o then Some (J.Str o.id) else None)
               r.experiments) );
        ("pool", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) pool));
      ]
  in
  Out_channel.with_open_bin (path ^ ".json") (fun oc -> output_string oc (J.to_string summary))

type outcome = {
  experiment_s : float list;
  attempted : int;
  failed : int;
  layers : (string * float) list;
  report : string list;
}

let run ~seed ~exe ~work =
  let check_out = Filename.concat work "reproduce.jobs2.out" in
  let pid =
    Unix.create_process exe
      [| exe; "--check-run"; check_out; "--seed"; string_of_int seed |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let check_ok = snd (Unix.waitpid [] pid) = Unix.WEXITED 0 in
  let check =
    if check_ok then J.parse (In_channel.with_open_bin (check_out ^ ".json") In_channel.input_all)
    else J.Obj []
  in
  let check_num k = match J.field_opt check k with Some (J.Num v) -> v | _ -> 0. in
  let cfg, exps = inputs ~seed in
  let out = Filename.concat work "reproduce.out" in
  let snap0 = Dut_obs.Metrics.snapshot () and gc0 = Gc.quick_stat () in
  let report = run_all cfg out in
  let snap1 = Dut_obs.Metrics.snapshot () and gc1 = Gc.quick_stat () in
  let got = In_channel.with_open_bin out In_channel.input_all in
  let want =
    if check_ok then In_channel.with_open_bin check_out In_channel.input_all else ""
  in
  let differs = if got = "" then Some 0 else first_difference got want in
  let check_failed =
    match J.field_opt check "failed" with
    | Some (J.Arr l) -> List.filter_map (function J.Str id -> Some id | _ -> None) l
    | _ -> []
  in
  let failed_ids =
    List.sort_uniq compare
      (check_failed
      @ List.filter_map
          (fun (o : Runner.outcome) -> if Runner.failed o then Some o.id else None)
          report.experiments)
  in
  let verdicts = Dut_experiments.Verifier.verify_all cfg in
  let verified = Dut_experiments.Verifier.all_passed verdicts in
  let failed =
    List.length failed_ids
    + (if differs = None then 0 else 1)
    + (if verified then 0 else 1)
    + if check_ok then 0 else 1
  in
  let seconds = List.map (fun (o : Runner.outcome) -> o.seconds) report.experiments in
  let sum = List.fold_left ( +. ) 0. seconds in
  let check_wall = check_num "wall_s" and check_sum = check_num "summed_s" in
  let imbalance = check_wall -. (check_sum /. float_of_int check_jobs) in
  let deltas = Spec.counter_deltas snap0 snap1 in
  let pool_deltas =
    match J.field_opt check "pool" with
    | Some (J.Obj l) -> List.filter_map (function k, J.Num v -> Some (k, v) | _ -> None) l
    | _ -> []
  in
  let heavy =
    List.map
      (fun id ->
        let s =
          List.fold_left
            (fun acc (o : Runner.outcome) -> if o.id = id then acc +. o.seconds else acc)
            0. report.experiments
        in
        ("experiments." ^ id ^ "_s", s))
      Spec.heavy_experiments
  in
  let heavy_sum = List.fold_left (fun a (_, s) -> a +. s) 0. heavy in
  let trials = Option.value (List.assoc_opt "mc.trials_used" deltas) ~default:0. in
  let layers =
    heavy
    @ [
        ("experiments.rest_s", sum -. heavy_sum);
        ("experiments.jobs2_wall_s", check_wall);
        ("experiments.imbalance_s", imbalance);
        ( "gc.minor_words_per_trial",
          if trials = 0. then 0. else (gc1.minor_words -. gc0.minor_words) /. trials );
        ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections));
      ]
    @ List.filter (fun d -> not (is_pool d)) deltas
    @ pool_deltas
  in
  let lines =
    [
      Printf.sprintf "run-all: %d experiments at jobs %d, wall %.2fs, summed %.2fs"
        (List.length report.experiments) jobs report.wall_seconds sum;
      Printf.sprintf
        "run-all check: jobs-%d run (wall %.2fs) %s, verify_all %s, failed experiments %s"
        check_jobs check_wall
        (match differs with
        | None -> "byte-identical"
        | Some _ when not check_ok -> "FAILED (the check process did not exit 0)"
        | Some i -> Printf.sprintf "differs from byte %d" i)
        (if verified then "passed" else "FAILED")
        (match failed_ids with [] -> "none" | l -> String.concat "," l);
      Printf.sprintf
        "run-all reconcile: wall %.2fs = summed %.2fs + %.2fs between experiments; \
         jobs-%d wall %.2fs = summed/jobs %.2fs + imbalance %.2fs"
        report.wall_seconds sum (report.wall_seconds -. sum) check_jobs check_wall
        (check_sum /. float_of_int check_jobs) imbalance;
    ]
  in
  {
    experiment_s = seconds;
    attempted = List.length exps + 1;
    failed;
    layers;
    report = lines;
  }
