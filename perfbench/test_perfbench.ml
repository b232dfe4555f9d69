(* Tests of the benchmark's own pieces: the tail-percentile rule, the
   generator's due-time accounting, and BENCHMARK.json against Spec. *)

module J = Dut_obs.Json

let check_float msg = Alcotest.(check (float 1e-9)) msg

let test_tail_rule () =
  let pct n = Pstats.tail_percentile n in
  Alcotest.(check (option (float 1e-9))) "10 samples: no tail" None (pct 10);
  Alcotest.(check (option (float 1e-9))) "11 samples" (Some 9.0) (pct 11);
  Alcotest.(check (option (float 1e-9))) "33 samples" (Some 69.6) (pct 33);
  Alcotest.(check (option (float 1e-9))) "1000 samples" (Some 99.0) (pct 1000);
  Alcotest.(check (option (float 1e-9))) "capped at p99" (Some 99.0) (pct 100_000);
  (* The chosen percentile leaves >= 10 samples above its rank, and the
     next tenth of a percent (below the cap) would not. *)
  for n = 11 to 3000 do
    let p = Option.get (pct n) in
    let beyond p = n - Pstats.rank_of ~n p in
    if beyond p < 10 then Alcotest.failf "n=%d: p%.1f leaves %d beyond" n p (beyond p);
    if p < 99. && beyond (p +. 0.1) >= 10 then
      Alcotest.failf "n=%d: p%.1f is not the highest" n p
  done

let test_summary () =
  let xs = Array.init 1010 (fun i -> float_of_int (1010 - i)) in
  let s = Pstats.summarize xs in
  Alcotest.(check int) "count" 1010 s.count;
  check_float "median" 505.5 s.p50;
  Alcotest.(check (option (float 1e-9))) "p99 value: 10 samples above" (Some 1000.) s.tail

let test_due_time_accounting () =
  (* Request 1 was due at 1.0 but the generator only sent it at 1.5: its
     latency runs from the due time, and the stall shows as lateness.
     Request 2 was never answered. *)
  let due = [| 0.; 1.; 2. |] and sent = [| 0.; 1.5; 2. |] in
  let recv = [| 0.25; 1.75; nan |] in
  let a = Gen.account ~due ~sent ~recv in
  Alcotest.(check int) "answered" 2 a.answered;
  Alcotest.(check int) "missing" 1 a.missing;
  Alcotest.(check (array (float 1e-9))) "latency from due" [| 0.25; 0.75 |] a.latency_s;
  Alcotest.(check (array (float 1e-9))) "lateness" [| 0.; 0.5; 0. |] a.late_s

let test_never_sent () =
  let a = Gen.account ~due:[| 0.; 1. |] ~sent:[| 0.; nan |] ~recv:[| 0.1; nan |] in
  Alcotest.(check int) "missing" 1 a.missing;
  Alcotest.(check int) "lateness only for sent" 1 (Array.length a.late_s)

let test_poisson () =
  let a = Gen.poisson_offsets ~seed:7 ~rate:1000. ~count:20_000 in
  let b = Gen.poisson_offsets ~seed:7 ~rate:1000. ~count:20_000 in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  Alcotest.(check bool) "different seed" true (a <> Gen.poisson_offsets ~seed:8 ~rate:1000. ~count:20_000);
  Array.iteri (fun i t -> if i > 0 && t < a.(i - 1) then Alcotest.fail "not increasing") a;
  let mean_gap = a.(19_999) /. 20_000. in
  if Float.abs (mean_gap -. 0.001) > 0.00005 then Alcotest.failf "mean gap %g" mean_gap

let test_response_id () =
  Alcotest.(check (option int)) "ok" (Some 42) (Gen.response_id {|{"id":42,"status":"ok","value":1}|});
  Alcotest.(check (option int)) "negative" (Some (-1)) (Gen.response_id {|{"id":-1,"status":"error"}|});
  Alcotest.(check (option int)) "garbage" None (Gen.response_id "nope")

(* -- BENCHMARK.json ------------------------------------------------------- *)

let benchmark =
  lazy (J.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all))

let arr = function J.Arr l -> l | _ -> Alcotest.fail "expected an array"
let str j k = J.want_str j k
let keys = function J.Obj kv -> List.sort compare (List.map fst kv) | _ -> []

let valid_name s =
  String.length s >= 1 && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let better_of = function Spec.Lower -> "lower" | Spec.Higher -> "higher"

let check_metrics ~section ~with_bound (specs : Spec.metric list) =
  let b = Lazy.force benchmark in
  let entries = arr (J.field b section) in
  Alcotest.(check (list string))
    (section ^ " names, in order")
    (List.map (fun (m : Spec.metric) -> m.name) specs)
    (List.map (fun e -> str e "name") entries);
  List.iter2
    (fun (m : Spec.metric) e ->
      Alcotest.(check (list string))
        (m.name ^ " keys")
        (List.sort compare ([ "name"; "unit"; "better" ] @ if with_bound then [ "bound" ] else []))
        (keys e);
      Alcotest.(check string) (m.name ^ " unit") m.unit_ (str e "unit");
      Alcotest.(check string) (m.name ^ " better") (better_of m.better) (str e "better");
      if not (valid_name m.name) then Alcotest.failf "bad metric name %S" m.name;
      if with_bound then begin
        let bound = J.want_num e "bound" in
        if not (bound > 0. && bound <= 0.25) then Alcotest.failf "%s: bound %g" m.name bound
      end)
    specs entries;
  entries

let test_end_to_end () =
  let entries = check_metrics ~section:"end_to_end" ~with_bound:true Spec.end_to_end in
  let bound name =
    J.want_num (List.find (fun e -> str e "name" = name) entries) "bound"
  in
  let setup = bound "setup_s" in
  List.iter
    (fun e -> if J.want_num e "bound" > setup then Alcotest.failf "setup_s must have the largest bound")
    entries

let test_per_layer () =
  let names = List.map (fun (m : Spec.metric) -> m.name) Spec.per_layer in
  Alcotest.(check int) "unique" (List.length names) (List.length (List.sort_uniq compare names));
  ignore (check_metrics ~section:"per_layer" ~with_bound:false Spec.per_layer)

let test_workloads_and_limits () =
  let b = Lazy.force benchmark in
  Alcotest.(check (list string))
    "top-level keys"
    [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ]
    (keys b);
  let ws = arr (J.field b "workloads") in
  Alcotest.(check (list string)) "workloads" Spec.workloads (List.map (fun w -> str w "name") ws);
  List.iter
    (fun w ->
      Alcotest.(check (list string)) "workload keys" [ "name"; "why" ] (keys w);
      let why = str w "why" in
      if why = "" || String.length why > 200 || String.contains why '\n' then
        Alcotest.failf "bad why for %s" (str w "name"))
    ws;
  let secs = J.want_num b "run_seconds" in
  if not (Float.is_integer secs && secs >= 1. && secs <= 60.) then Alcotest.fail "run_seconds";
  let rs = List.map snd Spec.rates_rps in
  Alcotest.(check (list string)) "rate labels" [ "low"; "mid"; "high" ] (List.map fst Spec.rates_rps);
  if List.sort compare rs <> rs || List.exists (fun r -> r <= 0.) rs then
    Alcotest.fail "rates must be positive and increasing";
  if not (Spec.tail_limit_ms > 0.) then Alcotest.fail "tail limit"

let () =
  Alcotest.run "perfbench"
    [
      ( "pstats",
        [
          Alcotest.test_case "highest percentile with 10 beyond" `Quick test_tail_rule;
          Alcotest.test_case "summary" `Quick test_summary;
        ] );
      ( "gen",
        [
          Alcotest.test_case "latency from due time" `Quick test_due_time_accounting;
          Alcotest.test_case "never sent is missing" `Quick test_never_sent;
          Alcotest.test_case "seeded Poisson schedule" `Quick test_poisson;
          Alcotest.test_case "response id" `Quick test_response_id;
        ] );
      ( "benchmark.json",
        [
          Alcotest.test_case "end-to-end metrics" `Quick test_end_to_end;
          Alcotest.test_case "per-layer metrics" `Quick test_per_layer;
          Alcotest.test_case "workloads and limits" `Quick test_workloads_and_limits;
        ] );
    ]
