(* The benchmark's fixed definitions: workloads, metric names and units,
   and the serve workload's frozen offered rates and latency limit.
   BENCHMARK.json at the repository root must list exactly these; the
   tests check it. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m ?(better = Lower) name unit_ = { name; unit_; better }

let workloads = [ "search"; "serve-power" ]

(* Every workload reports every end-to-end metric (see README.md for
   what each one measures on each workload). *)
let end_to_end =
  [
    m "setup_s" "s";
    m "peak_rss_mb" "MB";
    m "job_s" "s";
    m "cpu_s" "s";
  ]

(* The 8 heaviest experiments of a fast-profile run when the benchmark was defined,
   by jobs-1 elapsed; everything else is summed into experiments.rest_s. *)
let heavy_experiments =
  [
    "T10-single-sample";
    "F6-exact-power";
    "T21-stream";
    "T13-local-model";
    "T12-identity";
    "A1-ablation";
    "T2-and-rule";
    "T14-all-rules";
  ]

(* Dut_obs counters read by name around the run-alls and searches. A counter
   the program no longer defines is reported absent, not as a failure. *)
let counters =
  [
    "mc.trials_used";
    "mc.adaptive_early_stops";
    "search.probes";
    "scratch.reuse_hits";
    "scratch.borrows";
    "pool.tasks_claimed";
    "pool.idle_ns";
  ]

(* Growth of each counter between two snapshots; a counter missing from
   [after] is left out. *)
let counter_deltas before after =
  List.filter_map
    (fun name ->
      match (List.assoc_opt name before, List.assoc_opt name after) with
      | Some (Dut_obs.Metrics.Count a), Some (Dut_obs.Metrics.Count b) -> Some (name, float_of_int (b - a))
      | None, Some (Dut_obs.Metrics.Count b) -> Some (name, float_of_int b)
      | _ -> None)
    counters

let add_deltas acc d =
  List.map (fun (k, v) -> (k, v +. Option.value (List.assoc_opt k acc) ~default:0.)) d

let counter_better = function
  | "mc.adaptive_early_stops" | "scratch.reuse_hits" -> Higher
  | _ -> Lower

(* The serve workload's offered rates (requests/s), frozen at about 25%,
   50% and 80% of the fleet's capacity when the benchmark was defined,
   measured on a busy 2-core VM (about 1500 req/s; a quiet host bursts at up to about
   3700), so no phase overloads the fleet when the host is busy. A later
   change that moves capacity must show up as latency at these rates,
   never as re-derived rates. *)
let rates_rps = [ ("low", 375.); ("mid", 750.); ("high", 1200.) ]

(* The tail-latency limit a rate must meet to count toward serve.max_rps. *)
let tail_limit_ms = 60.

let per_layer =
  [
    m "stats.critical.probes" "count";
    m "stats.montecarlo.rounds_per_probe" "count";
    m "core.round_us" "us";
    m "dist.draws_per_round" "count";
    m "dist.draw_ns" "ns";
    m "core.player_share" "share";
    m "core.minor_words_per_round" "words";
    m "netsim.round_us" "us";
    m "netsim.minor_words_per_round" "words";
    m "core.calibration_s" "s";
  ]
  @ List.map (fun id -> m ("experiments." ^ id ^ "_s") "s") heavy_experiments
  @ [ m "experiments.rest_s" "s"; m "experiments.jobs2_wall_s" "s"; m "experiments.imbalance_s" "s" ]
  @ List.map
      (fun c ->
        m ~better:(counter_better c) c (if c = "pool.idle_ns" then "ns" else "count"))
      counters
  @ [
      m "gc.minor_words_per_trial" "words";
      m "gc.major_collections" "count";
      m "query.decode_ns" "ns";
      m "query.eval_us" "us";
      m "query.encode_ns" "ns";
      m "memo.find_us" "us";
      m "memo.store_us" "us";
      m ~better:Higher "memo.hit_ratio" "share";
      m ~better:Higher "server.batch_size" "count";
      m "server.request_p50_us" "us";
      m "server.request_p99_us" "us";
      m "shard.balance" "ratio";
      m "server.publish_us" "us";
      m "transport.residual_ms" "ms";
    ]
  @ List.concat_map
      (fun r -> [ m ("serve.lat_p50_ms." ^ r) "ms"; m ("serve.lat_tail_ms." ^ r) "ms" ])
      (List.map fst rates_rps)
  @ [
      m ~better:Higher "serve.max_rps" "1/s";
      m ~better:Higher "serve.burst_rps" "1/s";
      m "reconcile.search_residual_share" "share";
      m "reconcile.serve_residual_ms" "ms";
      m "reconcile.trace_overhead_share" "share";
      m "gen.late_ms" "ms";
      m "host.steal_share" "share";
    ]
