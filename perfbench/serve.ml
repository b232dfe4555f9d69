(* The serve workload: an open loop of [power] queries against
   [dut serve --shards 2] (one engine domain per worker), as independent
   users would send them. Queries are verdicts over and / threshold /
   clique / bipartite testers at ell=5, eps=0.4, 40% of them repeating
   an earlier key, so the memo's read and write paths, the
   ring's locality and the core Monte-Carlo layers all sit behind the
   service.

   Run phases, on one fleet with a fresh cache directory: a closed-loop
   warm-up burst; then [rounds] rounds of one closed-loop burst (the
   workload's job: capacity) and seeded Poisson arrivals at each of the
   frozen low, mid and high rates. The fleet is launched five times
   (set-up is the median launch-to-first-answer time) by fork/exec
   before any OCaml domain exists in this process. *)

module Q = Dut_service.Query
module J = Dut_obs.Json

(* -- The fleet -------------------------------------------------------- *)

type fleet = { pid : int; socket : string; summary : string; ready_s : float }

(* One cheap query per worker: the fleet is up once both are answered.
   Their keys (n < 64) never collide with a workload's queries. *)
let probe_lines =
  let rec pick n acc =
    if List.length acc = 2 then List.rev_map snd acc
    else
      let q = Q.Bound { name = "thm11_lower"; params = [ ("eps", 0.5); ("k", 2.); ("n", float_of_int n) ] } in
      let shard = Dut_service.Shard.shard_of_key ~shards:2 (Q.canonical q) in
      if List.mem_assoc shard acc then pick (n + 1) acc
      else pick (n + 1) ((shard, Q.request_to_line ~id:(List.length acc) q) :: acc)
  in
  Array.of_list (pick 1 [])

let launch ~dut ~dir =
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" and summary = Filename.concat dir "fleet.json" in
  let err =
    Unix.openfile (Filename.concat dir "fleet.err") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let t0 = Gen.now () in
  let pid =
    Unix.create_process dut
      [|
        dut; "serve"; "--shards"; "2"; "--jobs"; "1"; "--socket"; socket; "--cache-dir";
        Filename.concat dir "memo"; "--summary"; summary;
      |]
      Unix.stdin err err
  in
  Unix.close err;
  let fail msg =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    failwith msg
  in
  let rec await tries =
    match
      Gen.run ~socket ~conns:1 ~window:2 ~first_id:0 ~lines:probe_lines ~offsets:[| 0.; 0. |]
        ~grace_s:30.
    with
    | r when r.Gen.acc.missing = 0 -> ()
    | _ -> fail "dut serve did not answer its first queries within 30s"
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "dut serve exited before answering a query");
        if tries = 0 then fail "dut serve did not accept a connection within 30s";
        Unix.sleepf 0.001;
        await (tries - 1)
  in
  await 30_000;
  { pid; socket; summary; ready_s = Gen.now () -. t0 }

let processes f = f.pid :: Host.children f.pid

(* SIGINT drains the fleet; a fleet still up after 20s is killed, and
   every process it started is waited for. *)
let stop f =
  let all = processes f in
  (try Unix.kill f.pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Gen.now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] f.pid with
    | 0, _ when Gen.now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) all;
        ignore (Unix.waitpid [] f.pid);
        false
    | _, status -> status = Unix.WEXITED 0
  in
  let clean = wait () in
  (* Workers are the router's children; once it is reaped they are gone
     or orphaned, and an orphan is killed rather than left behind. *)
  List.iter
    (fun p ->
      if p <> f.pid && Sys.file_exists (Printf.sprintf "/proc/%d" p) then
        try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
    all;
  clean

(* -- Requests ----------------------------------------------------------- *)

let testers =
  [|
    Q.And;
    Q.Threshold 2;
    Q.Graph { family = Q.Clique; t = 1 };
    Q.Graph { family = Q.Bipartite; t = 1 };
  |]

(* Share of requests that repeat an earlier key: about half, but off
   one half, so that latency medians sit inside the slower mode (memo
   misses) instead of on the edge between hits and misses, where they
   would jump with the hit ratio's run-to-run wobble. *)
let repeat = 0.4

(* Every (tester, k, q) cell of the power queries' grid. *)
let cells =
  Array.of_list
    (List.concat_map
       (fun t -> List.concat_map (fun k -> List.init 41 (fun j -> (t, k, 8 + j))) [ 4; 8; 16 ])
       (Array.to_list testers))

(* The run's queries: with probability [repeat] an earlier query again,
   otherwise a fresh seed on the next cell of a seeded shuffle of the
   grid, so every run carries the same mix of evaluation costs. The
   trials and level are the wire defaults. *)
let queries st n =
  let order = Array.init (Array.length cells) Fun.id in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let fresh = ref 0 in
  let qs = Array.make n (Q.Bound { name = ""; params = [] }) in
  for i = 0 to n - 1 do
    qs.(i) <-
      (if i > 0 && Random.State.float st 1. < repeat then qs.(Random.State.int st i)
       else
         let tester, k, q = cells.(order.(!fresh mod Array.length order)) in
         incr fresh;
         Q.Power
           {
             tester;
             ell = 5;
             eps = 0.4;
             k;
             q;
             trials = 120;
             level = 0.72;
             seed = 1 + Random.State.int st 1_000_000_000;
             adaptive = true;
           })
  done;
  qs

(* -- Fleet summaries ------------------------------------------------------ *)

type worker_stats = {
  requests : int;
  batches : int;
  hits : int;
  misses : int;
  latency : Dut_obs.Histogram.t;
}

let worker_stats f =
  List.init 2 (fun i ->
      let path = Dut_service.Shard.shard_summary f.summary i in
      match Host.read_file path with
      | None -> None
      | Some s -> (
          match J.parse s with
          | exception J.Malformed _ -> None
          | j ->
              let n k = match J.field_opt j k with Some (J.Num v) -> int_of_float v | _ -> 0 in
              Some
                {
                  requests = n "requests";
                  batches = n "batches";
                  hits = n "cache_hits";
                  misses = n "cache_misses";
                  latency =
                    (match J.field_opt j "latency_buckets" with
                    | Some b -> Dut_obs.Histogram.of_json b
                    | None -> Dut_obs.Histogram.create ());
                }))

(* What each worker did between two readings of its summary. *)
let delta before after =
  List.map2
    (fun a b ->
      match (a, b) with
      | Some a, Some b ->
          {
            requests = b.requests - a.requests;
            batches = b.batches - a.batches;
            hits = b.hits - a.hits;
            misses = b.misses - a.misses;
            latency = Dut_obs.Histogram.diff b.latency a.latency;
          }
      | _ ->
          { requests = 0; batches = 0; hits = 0; misses = 0; latency = Dut_obs.Histogram.create () })
    before after

let add a b =
  List.map2
    (fun a b ->
      {
        requests = a.requests + b.requests;
        batches = a.batches + b.batches;
        hits = a.hits + b.hits;
        misses = a.misses + b.misses;
        latency = Dut_obs.Histogram.merge a.latency b.latency;
      })
    a b

(* Server-side figures from per-worker deltas. *)
let server_layers workers =
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 workers in
  let total = sum (fun w -> w.requests) and batches = sum (fun w -> w.batches) in
  let hits = sum (fun w -> w.hits) and misses = sum (fun w -> w.misses) in
  let lat =
    List.fold_left
      (fun acc w -> Dut_obs.Histogram.merge acc w.latency)
      (Dut_obs.Histogram.create ()) workers
  in
  let q p = float_of_int (Dut_obs.Histogram.q_or_zero lat p) /. 1e3 in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let busiest = List.fold_left (fun m w -> max m w.requests) 0 workers in
  [
    ("memo.hit_ratio", ratio hits (hits + misses));
    ("server.batch_size", ratio total batches);
    ("server.request_p50_us", q 0.5);
    ("server.request_p99_us", q 0.99);
    ("shard.balance", ratio (busiest * List.length workers) total);
  ]

(* -- In-process replay ----------------------------------------------------- *)

(* The id-less payload of a response line {"id":N,...}. *)
let payload_of_line line =
  match String.index_opt line ',' with
  | Some j -> "{" ^ String.sub line (j + 1) (String.length line - j - 1)
  | None -> line

(* Expected payload of every distinct query, from [Server.handle_batch]
   in this process: the reference every fleet response must equal. *)
let expected queries =
  let tbl = Hashtbl.create 1024 in
  let uniq =
    List.filter
      (fun q ->
        let c = Q.canonical q in
        (not (Hashtbl.mem tbl c)) && (Hashtbl.replace tbl c ""; true))
      queries
  in
  let lines =
    Dut_service.Server.handle_batch ~jobs:2
      (Array.of_list (List.map (fun q -> { Q.id = 0; query = Ok q }) uniq))
  in
  List.iteri (fun i q -> Hashtbl.replace tbl (Q.canonical q) (payload_of_line lines.(i))) uniq;
  tbl

let median_of f xs = Pstats.median (Array.of_list (List.map f xs))

(* Time the worker's per-request stages on [sample] distinct request
   lines, each stage called through its public function. *)
let stage_layers ~dir ~summary_bytes lines =
  let memo = Dut_service.Memo.create ~dir:(Some (Filename.concat dir "replay-memo")) () in
  let ns f =
    let t0 = Dut_obs.Span.now_ns () in
    let v = f () in
    (v, float_of_int (Dut_obs.Span.now_ns () - t0))
  in
  let rows =
    List.map
      (fun line ->
        let req, dec = ns (fun () -> Q.request_of_line line) in
        let q = match req.Q.query with Ok q -> q | Error e -> failwith e in
        let key = Q.canonical q in
        let _, find = ns (fun () -> Dut_service.Memo.find memo ~key) in
        let v, ev = ns (fun () -> Q.eval q) in
        let line, enc = ns (fun () -> Q.response_line ~id:req.Q.id (Q.ok_payload v)) in
        let _, store = ns (fun () -> Dut_service.Memo.store memo ~key (payload_of_line line)) in
        (dec, find, ev, enc, store))
      lines
  in
  let publish_path = Filename.concat dir "publish.json" in
  let publishes =
    List.init 200 (fun _ ->
        snd (ns (fun () -> Dut_obs.Manifest.write_atomic ~path:publish_path summary_bytes)))
  in
  [
    ("query.decode_ns", median_of (fun (d, _, _, _, _) -> d) rows);
    ("memo.find_us", median_of (fun (_, f, _, _, _) -> f) rows /. 1e3);
    ("query.eval_us", median_of (fun (_, _, e, _, _) -> e) rows /. 1e3);
    ("query.encode_ns", median_of (fun (_, _, _, e, _) -> e) rows);
    ("memo.store_us", median_of (fun (_, _, _, _, s) -> s) rows /. 1e3);
    ("server.publish_us", median_of Fun.id publishes /. 1e3);
  ]

(* -- The workload ------------------------------------------------------ *)

type step = Closed of string * int | Open of string * float * float  (** label, rate, seconds *)

type phase = { label : string; res : Gen.result; first_id : int; n : int }

type outcome = {
  setup_s : float list;
  peak_rss_mb : float;
  job_s : float;
  cpu_s : float;  (** fleet CPU seconds per 1000 requests *)
  attempted : int;
  failed : int;
  late_p99_ms : float option;
  layers : (string * float) list;
  report : string list;
}

(* The rate around whose phases the workers' summaries are diffed, and
   against whose client latency the transport residual is taken: at a
   quarter of capacity, queueing amplifies the host's noise least. *)
let operating_rate = "low"

let burst_count = 2500
let rounds = 5

(* The run's steps: a warm-up, then [rounds] rounds of one burst and one
   open-loop phase per rate, so slow drifts of the host spread evenly
   over every figure. Open-loop phases take three quarters of
   [seconds]. *)
let plan ~seconds =
  let open_s = 0.75 *. seconds /. float_of_int (rounds * List.length Spec.rates_rps) in
  Closed ("warm", burst_count)
  :: List.concat
       (List.init rounds (fun _ ->
            Closed ("burst", burst_count)
            :: List.map (fun (label, rate) -> Open (label, rate, open_s)) Spec.rates_rps))

let step_count = function
  | Closed (_, n) -> n
  | Open (_, rate, s) -> max 1 (int_of_float (rate *. s))

(* Fleet launches per run; set-up is their median launch-to-first-answer
   time, a few tens of milliseconds each. *)
let launches = 5

let run ~seed ~seconds ~traced ~dut ~work =
  let workload = "serve-power" in
  (* Set-up: [launches] launches in turn; the last one serves the load. *)
  let launches =
    List.init launches (fun i ->
        let f = launch ~dut ~dir:(Filename.concat work (Printf.sprintf "fleet%d" i)) in
        (f, i = launches - 1 || stop f))
  in
  let fleet = fst (List.nth launches (List.length launches - 1)) in
  let st = Random.State.make [| seed; Hashtbl.hash workload |] in
  let steps = plan ~seconds in
  let queries = queries st (List.fold_left (fun a s -> a + step_count s) 0 steps) in
  let fleet_cpu () = List.fold_left (fun a p -> a +. Option.value (Host.cpu_s p) ~default:0.) 0. (processes fleet) in
  let sent = ref 0 and op_workers = ref None and cpu0 = ref 0. in
  let phases =
    (* A failure mid-load must not leave the fleet running. *)
    match
    List.mapi
      (fun k step ->
        let first_id = !sent and n = step_count step in
        sent := first_id + n;
        let lines = Array.init n (fun j -> Q.request_to_line ~id:(first_id + j) queries.(first_id + j)) in
        let label, window, offsets =
          match step with
          | Closed (label, n) -> (label, 64, Array.make n 0.)
          | Open (label, rate, _) ->
              (label, max_int, Gen.poisson_offsets ~seed:(Hashtbl.hash (seed, k)) ~rate ~count:n)
        in
        let before = worker_stats fleet in
        let res =
          Gen.run ~socket:fleet.socket ~conns:2 ~window ~first_id ~lines ~offsets ~grace_s:10.
        in
        if label = operating_rate then begin
          let d = delta before (worker_stats fleet) in
          op_workers := Some (match !op_workers with None -> d | Some acc -> add acc d)
        end;
        if label = "warm" then cpu0 := fleet_cpu ();
        { label; res; first_id; n })
      steps
    with
    | ps -> ps
    | exception e ->
        ignore (stop fleet);
        raise e
  in
  (* Fleet CPU seconds per 1000 requests over the measured load. *)
  let cpu_s = (fleet_cpu () -. !cpu0) *. 1000. /. float_of_int (!sent - burst_count) in
  let labelled l = List.filter (fun p -> p.label = l) phases in
  let peak_rss_mb =
    List.fold_left
      (fun acc p -> acc +. Option.value (Host.peak_rss_mb p) ~default:0.)
      0. (processes fleet)
  in
  let summary_bytes =
    Option.value (Host.read_file (Dut_service.Shard.shard_summary fleet.summary 0)) ~default:"{}"
  in
  let stopped = stop fleet :: List.map snd launches in
  let unclean = List.length (List.filter not stopped) in
  (* Output check: every response byte-equal to the in-process server's
     answer to the same line; errors and missing answers fail. *)
  let all_queries = Array.to_list queries in
  let want = expected all_queries in
  let attempted = ref 0 and missing = ref 0 and wrong = ref 0 in
  List.iter
    (fun p ->
      Array.iteri
        (fun j r ->
          incr attempted;
          let id = p.first_id + j in
          let expected =
            Q.response_line ~id (Hashtbl.find want (Q.canonical queries.(id)))
          in
          match r with
          | Some line when line = expected -> ()
          | Some _ -> incr wrong
          | None -> incr missing)
        p.res.Gen.responses)
    phases;
  let ms = Array.map (fun s -> s *. 1e3) in
  (* Per rate: each phase summarised on its own, then the median over
     the rounds, so one phase hit by a stall of the host moves neither
     figure. *)
  let over_rounds ps =
    let ss = List.map (fun p -> Pstats.summarize (ms p.res.Gen.acc.latency_s)) ps in
    let med l = Pstats.median (Array.of_list l) in
    let tails = List.filter_map (fun (s : Pstats.summary) -> s.tail) ss in
    {
      Pstats.count = List.fold_left (fun a (s : Pstats.summary) -> a + s.count) 0 ss;
      p50 = med (List.map (fun (s : Pstats.summary) -> s.p50) ss);
      tail_pct = List.fold_left (fun a (s : Pstats.summary) -> min a s.tail_pct) (Some 99.) ss;
      tail = (if List.length tails = List.length ss then Some (med tails) else None);
    }
  in
  let rates =
    List.map (fun (label, rate) -> let ps = labelled label in (label, rate, ps, over_rounds ps)) Spec.rates_rps
  in
  let lat =
    match List.find_opt (fun (l, _, _, _) -> l = operating_rate) rates with
    | Some (_, _, _, s) -> s
    | None -> invalid_arg "Serve.run: no operating rate"
  in
  let late =
    Array.concat
      (List.concat_map (fun (_, _, ps, _) -> List.map (fun p -> ms p.res.Gen.acc.late_s) ps) rates)
  in
  let late_p99_ms =
    if Array.length late = 0 then None
    else Some (Pstats.percentile_sorted (Pstats.sorted late) 99.)
  in
  (* A rate is met when its tail is within the limit, nothing is
     missing, and latency is not climbing through any of its phases
     (the median of a phase's last quarter of requests at most twice its
     first quarter's, plus a millisecond). *)
  let steady p =
    let lat = ms p.res.Gen.acc.latency_s in
    let q = Array.length lat / 4 in
    q < 1
    || Pstats.median (Array.sub lat (Array.length lat - q) q)
       <= (2. *. Pstats.median (Array.sub lat 0 q)) +. 1.
  in
  let meets (_, _, ps, (s : Pstats.summary)) =
    List.for_all (fun p -> p.res.Gen.acc.missing = 0 && steady p) ps
    && match s.tail with Some t -> t <= Spec.tail_limit_ms | None -> false
  in
  let max_rps = List.fold_left (fun acc ((_, r, _, _) as x) -> if meets x then r else acc) 0. rates in
  let bursts = labelled "burst" in
  let burst_s = List.map (fun p -> p.res.Gen.wall_s) bursts in
  (* The mean over the 5 bursts averages the query mix (which cells,
     hits and shard balance a burst gets) over 12500 requests: with
     1000-request bursts the cost balance between the two workers
     alone moved this figure by a quarter between seeds. *)
  let job_s = List.fold_left ( +. ) 0. burst_s /. float_of_int (List.length burst_s) in
  let burst_rps = float_of_int (burst_count) /. job_s in
  let layers =
    if not traced then []
    else
      let server = server_layers (Option.value !op_workers ~default:[]) in
      let uniq_lines =
        let seen = Hashtbl.create 64 in
        List.filter_map
          (fun q ->
            let c = Q.canonical q in
            if Hashtbl.mem seen c || Hashtbl.length seen >= 300 then None
            else (
              Hashtbl.replace seen c ();
              Some (Q.request_to_line ~id:0 q)))
          all_queries
      in
      let stages = stage_layers ~dir:work ~summary_bytes uniq_lines in
      let g l k = List.assoc k l in
      let hit = g server "memo.hit_ratio" in
      let stage_ms =
        (g stages "query.decode_ns" /. 1e6)
        +. (g stages "memo.find_us" /. 1e3)
        +. ((1. -. hit) *. ((g stages "query.eval_us" +. g stages "memo.store_us") /. 1e3))
        +. (g stages "query.encode_ns" /. 1e6)
      in
      let server_ms = g server "server.request_p50_us" /. 1e3 in
      server @ stages
      @ List.concat_map
          (fun (label, _, _, (s : Pstats.summary)) ->
            [
              ("serve.lat_p50_ms." ^ label, s.p50);
              ("serve.lat_tail_ms." ^ label, Option.value s.tail ~default:nan);
            ])
          rates
      @ [
          ("serve.max_rps", max_rps);
          ("serve.burst_rps", burst_rps);
          ("transport.residual_ms", lat.p50 -. server_ms);
          ("reconcile.serve_residual_ms", server_ms -. stage_ms);
        ]
  in
  let report =
    List.map
      (fun (label, rate, ps, (s : Pstats.summary)) ->
        Printf.sprintf "%s %s: %.0f req/s offered, %d sent, %d missing, p50 %.3fms (rounds %s), p%s %s"
          workload label rate
          (List.fold_left (fun a p -> a + p.n) 0 ps)
          (List.fold_left (fun a p -> a + p.res.Gen.acc.missing) 0 ps)
          s.p50
          (String.concat " "
             (List.map (fun p -> Printf.sprintf "%.2f" (Pstats.summarize (ms p.res.Gen.acc.latency_s)).p50) ps))
          (match s.tail_pct with Some t -> Printf.sprintf "%.1f" t | None -> "-")
          (match s.tail with Some t -> Printf.sprintf "%.3fms" t | None -> "-"))
      rates
    @ [
        Printf.sprintf
          "%s check: %d requests, %d missing, %d differing from Server.handle_batch, %d unclean \
           fleet exits"
          workload !attempted !missing !wrong unclean;
        Printf.sprintf "%s bursts of %d requests: %s s (mean %.0f req/s); max_rps %.0f (limit %.0fms)"
          workload (burst_count)
          (String.concat " " (List.map (Printf.sprintf "%.3f") burst_s))
          burst_rps max_rps Spec.tail_limit_ms;
      ]
  in
  {
    setup_s = List.map (fun (f, _) -> f.ready_s) launches;
    peak_rss_mb;
    job_s;
    cpu_s;
    attempted = !attempted;
    failed = !missing + !wrong + unclean;
    late_p99_ms;
    layers;
    report;
  }
