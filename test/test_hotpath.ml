(* Tests for the hot-path overhaul: adaptive Monte-Carlo stopping,
   per-domain scratch arenas, and warm-started critical search.

   Two families of guarantees are exercised:
   - equivalence: each scratch-arena kernel reproduces its allocating
     oracle (Legacy_kernels, or a named library function) bit for bit —
     the result AND the generator state after the call, so the kernel
     equalities compose into equality of whole evaluations — and the
     seeded search returns the same answer as the cold one for every
     monotone predicate;
   - jobs-invariance: the adaptive estimator's estimate AND spend are
     identical for every jobs count. *)

let rng seed = Dut_prng.Rng.create seed

(* Where a generator stands: its next output and the first output of
   its next child, so both the draw stream and the splitter are pinned
   (most round kernels only split their root). Reading it advances the
   generator, so read each one once. *)
let state r =
  (Dut_prng.Rng.bits64 r, Dut_prng.Rng.bits64 (Dut_prng.Rng.split r))

(* A kernel and its oracle, run from equal seeds, must leave their
   generators at the same point: same draws, same splits. *)
let check_same_state msg a b =
  Alcotest.(check (pair int64 int64)) (msg ^ " generator state") (state a)
    (state b)

(* -- Adaptive stopping --------------------------------------------------- *)

let verdict_of_fixed ~level (ci : Dut_stats.Binomial_ci.t) =
  ci.estimate >= level

let test_adaptive_agrees_with_fixed_when_decisive () =
  (* For seeds and biases across both sides of the target, whenever the
     fixed-budget interval is decisive the adaptive verdict must match
     the fixed verdict. Deterministic: a fixed set of seeds. *)
  let trials = 200 and target = 0.5 in
  let checked = ref 0 in
  for seed = 0 to 149 do
    let p = if seed mod 2 = 0 then 0.2 else 0.8 in
    let event r = Dut_prng.Rng.unit_float r < p in
    let fixed = Dut_stats.Montecarlo.estimate_prob ~trials (rng seed) event in
    if fixed.lower > target || fixed.upper < target then begin
      incr checked;
      let adaptive =
        Dut_stats.Montecarlo.estimate_prob_adaptive ~max_trials:trials ~target
          (rng seed) event
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d verdict" seed)
        (verdict_of_fixed ~level:target fixed)
        (adaptive.ci.estimate >= target);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d stopped early" seed)
        true
        (adaptive.trials_used <= trials)
    end
  done;
  Alcotest.(check bool) "most fixed runs were decisive" true (!checked > 100)

let test_adaptive_full_budget_equals_fixed () =
  (* A bias pinned to the target never lets the interval separate, so
     the adaptive estimator must spend the whole budget and land on
     exactly the fixed estimate (same streams, same counts). *)
  let trials = 160 and target = 0.5 in
  let event r = Dut_prng.Rng.unit_float r < 0.5 in
  for seed = 0 to 19 do
    let fixed = Dut_stats.Montecarlo.estimate_prob ~trials (rng seed) event in
    let adaptive =
      Dut_stats.Montecarlo.estimate_prob_adaptive ~max_trials:trials ~target
        (rng seed) event
    in
    if adaptive.trials_used = trials then
      Alcotest.(check (float 0.))
        (Printf.sprintf "seed %d estimate" seed)
        fixed.estimate adaptive.ci.estimate
  done

let test_adaptive_jobs_invariant () =
  let est jobs =
    Dut_stats.Montecarlo.estimate_prob_adaptive ~jobs ~max_trials:500
      ~target:0.45 (rng 42) (fun r -> Dut_prng.Rng.unit_float r < 0.3)
  in
  let base = est 1 in
  Alcotest.(check bool)
    "adaptive stopped before the cap" true
    (base.trials_used < 500);
  List.iter
    (fun jobs ->
      let a = est jobs in
      Alcotest.(check (float 0.))
        (Printf.sprintf "estimate jobs=%d" jobs)
        base.ci.estimate a.ci.estimate;
      Alcotest.(check int)
        (Printf.sprintf "trials_used jobs=%d" jobs)
        base.trials_used a.trials_used)
    [ 2; 4 ]

(* -- Scratch kernels vs the allocating paths ----------------------------- *)

let test_random_scratch_equals_random () =
  List.iter
    (fun (ell, eps, seed) ->
      let ra = rng seed and rb = rng seed in
      let a = Dut_dist.Paninski.random ~ell ~eps ra in
      let b = Dut_dist.Paninski.random_scratch ~ell ~eps rb in
      let msg = Printf.sprintf "ell=%d seed=%d" ell seed in
      Alcotest.(check (array int))
        ("z " ^ msg) (Dut_dist.Paninski.z a) (Dut_dist.Paninski.z b);
      check_same_state msg ra rb)
    [ (2, 0.3, 0); (5, 0.25, 1); (7, 0.3, 2); (7, 0.5, 3); (9, 0.25, 4) ]

let test_draw_many_into_equals_draw_many () =
  let hard = Dut_dist.Paninski.random ~ell:6 ~eps:0.3 (rng 9) in
  let expected = Dut_dist.Paninski.draw_many hard (rng 10) 777 in
  let buf = Array.make 777 (-1) in
  Dut_dist.Paninski.draw_many_into hard (rng 10) buf;
  Alcotest.(check (array int)) "paninski draws" expected buf;
  let sampler = Dut_dist.Sampler.of_pmf (Dut_dist.Pmf.uniform 97) in
  let expected = Dut_dist.Sampler.draw_many sampler (rng 11) 500 in
  let buf = Array.make 500 (-1) in
  Dut_dist.Sampler.draw_many_into sampler (rng 11) buf;
  Alcotest.(check (array int)) "sampler draws" expected buf

(* What a player or messenger saw: its index, its whole sample tuple
   and one draw from its private coins. Comparing these, not only the
   votes, pins every draw a round kernel hands out — a kernel that
   drew one sample too many, or split a child too few, shows up even
   where the bool it produced happens to agree. *)
type seen = int * int list * int

let seen_t = Alcotest.(list (triple int (list int) int))

let observe ~index coins samples : seen =
  (index, Array.to_list samples, Dut_prng.Rng.int coins 1000)

(* A collision-count player whose observations land in [log]. *)
let recording_player log ~index coins samples =
  let ((_, _, coin) as o) = observe ~index coins samples in
  log := o :: !log;
  Dut_core.Local_stat.collisions samples + (coin mod 2) < 4 + (index mod 2)

let test_round_equals_legacy_allocating_round () =
  let n = 256 and k = 16 and q = 40 in
  let source = Dut_protocol.Network.uniform_source ~n in
  List.iter
    (fun (seed, rule) ->
      let msg = Printf.sprintf "seed %d" seed in
      let r_legacy = rng seed and r_rates = rng seed and r = rng seed in
      let l_legacy = ref [] and l_rates = ref [] and l = ref [] in
      let expected_votes, expected_accept =
        Legacy_kernels.round ~rng:r_legacy ~source ~k ~q
          ~player:(recording_player l_legacy) ~rule
      in
      let rates =
        Dut_protocol.Network.round_rates ~rng:r_rates ~source
          ~qs:(Array.make k q) ~player:(recording_player l_rates) ~rule
      in
      let t =
        Dut_protocol.Network.round ~rng:r ~source ~k ~q
          ~player:(recording_player l) ~rule
      in
      Alcotest.(check (array bool)) (msg ^ " votes") expected_votes t.votes;
      Alcotest.(check bool) (msg ^ " accept") expected_accept t.accept;
      Alcotest.check seen_t (msg ^ " legacy draws") !l_legacy !l;
      Alcotest.(check (array bool)) (msg ^ " round_rates votes") rates.votes
        t.votes;
      Alcotest.check seen_t (msg ^ " round_rates draws") !l_rates !l;
      let after = state r in
      Alcotest.(check (pair int64 int64)) (msg ^ " legacy generator state")
        (state r_legacy) after;
      Alcotest.(check (pair int64 int64)) (msg ^ " round_rates generator state")
        (state r_rates) after)
    [
      (0, Dut_protocol.Rule.And);
      (1, Dut_protocol.Rule.Majority);
      (2, Dut_protocol.Rule.Reject_threshold 4);
    ]

(* The message kernels and the single-sample referee against the
   allocating bodies they replaced (test/legacy_kernels.ml). *)
let test_legacy_kernels_equal_scratch_kernels () =
  let n = 256 and k = 13 and q = 9 in
  let source = Dut_protocol.Network.uniform_source ~n in
  for seed = 0 to 9 do
    let msg name = Printf.sprintf "%s seed %d" name seed in
    let collect got messages =
      got := Array.to_list messages;
      true
    in
    let ra = rng seed and rb = rng seed in
    let expected = ref [] and got = ref [] in
    ignore
      (Legacy_kernels.round_messages ~rng:ra ~source ~k ~q ~messenger:observe
         ~referee:(collect expected));
    ignore
      (Dut_protocol.Network.round_messages ~rng:rb ~source ~k ~q
         ~messenger:observe ~referee:(collect got));
    Alcotest.check seen_t (msg "round_messages") !expected !got;
    check_same_state (msg "round_messages") ra rb;
    let ra = rng seed and rb = rng seed in
    let cons acc m = m :: acc in
    let expected =
      Legacy_kernels.round_fold ~rng:ra ~source ~k ~q ~messenger:observe
        ~init:[] ~f:cons
    in
    let got =
      Dut_protocol.Network.round_fold ~rng:rb ~source ~k ~q ~messenger:observe
        ~init:[] ~f:cons
    in
    Alcotest.check seen_t (msg "round_fold") expected got;
    check_same_state (msg "round_fold") ra rb
  done;
  (* k = 300 players in 8 groups: four of 38 and four of 37. *)
  let n = 128 and eps = 0.3 and k = 300 and bits = 3 in
  let accepts = Dut_core.Single_sample.(accepts (make ~n ~eps ~k ~bits)) in
  let far =
    Dut_protocol.Network.of_paninski
      (Dut_dist.Paninski.random ~ell:6 ~eps (rng 77))
  in
  List.iteri
    (fun i source ->
      for seed = 0 to 19 do
        let msg = Printf.sprintf "single-sample source %d seed %d" i seed in
        let ra = rng seed and rb = rng seed in
        let expected =
          Legacy_kernels.single_sample_accepts ~n ~eps ~k ~bits ra source
        in
        Alcotest.(check bool) msg expected (accepts rb source);
        check_same_state msg ra rb
      done)
    [ Dut_protocol.Network.uniform_source ~n; far ]

let prop_single_sample_equals_legacy =
  (* Every group split, including k mod groups <> 0, so the arithmetic
     group_of is pinned against the contiguous-run assignment table. *)
  QCheck.Test.make ~name:"Single_sample.accepts = legacy referee" ~count:300
    QCheck.(
      quad small_int (int_range 1 6) (int_range 1 6) (int_range 2 64))
    (fun (seed, ell, bits_raw, k) ->
      let bits = 1 + ((bits_raw - 1) mod ell) in
      let n = 1 lsl (ell + 1) and eps = 0.4 in
      let accepts = Dut_core.Single_sample.(accepts (make ~n ~eps ~k ~bits)) in
      let sources =
        [
          Dut_protocol.Network.uniform_source ~n;
          Dut_protocol.Network.of_paninski
            (Dut_dist.Paninski.random ~ell ~eps (rng (seed + 1000)));
        ]
      in
      List.for_all
        (fun source ->
          let ra = rng seed and rb = rng seed in
          let expected =
            Legacy_kernels.single_sample_accepts ~n ~eps ~k ~bits ra source
          in
          expected = accepts rb source && state ra = state rb)
        sources)

(* -- Counting referee ---------------------------------------------------- *)

let test_round_accept_equals_round () =
  let n = 256 in
  let source = Dut_protocol.Network.uniform_source ~n in
  let parity votes =
    Array.fold_left (fun acc v -> acc + Bool.to_int v) 0 votes mod 2 = 0
  in
  List.iter
    (fun rule ->
      for seed = 0 to 9 do
        let msg = Printf.sprintf "%s seed %d" (Dut_protocol.Rule.name rule) seed in
        let ra = rng seed and rb = rng seed in
        let la = ref [] and lb = ref [] in
        let t =
          Dut_protocol.Network.round ~rng:ra ~source ~k:16 ~q:40
            ~player:(recording_player la) ~rule
        in
        let accept =
          Dut_protocol.Network.round_accept ~rng:rb ~source ~k:16 ~q:40
            ~player:(recording_player lb) ~rule
        in
        Alcotest.(check bool) msg t.accept accept;
        Alcotest.check seen_t (msg ^ " draws") !la !lb;
        check_same_state msg ra rb
      done)
    [
      Dut_protocol.Rule.And; Dut_protocol.Rule.Or; Dut_protocol.Rule.Majority;
      Dut_protocol.Rule.Reject_threshold 4;
      Dut_protocol.Rule.Accept_at_least 9;
      (* Not count-decidable: round_accept must fall back to round. *)
      Dut_protocol.Rule.Custom ("parity", parity);
    ]

let prop_accept_min_matches_apply =
  (* For every count-decidable rule the referee's verdict must be the
     single integer compare [ones >= accept_min] on arbitrary votes. *)
  QCheck.Test.make ~name:"accept_min cutoff = Rule.apply" ~count:500
    QCheck.(
      pair (int_range 1 40) (list_of_size Gen.(int_range 1 40) bool))
    (fun (threshold, votes) ->
      let votes = Array.of_list votes in
      let k = Array.length votes in
      let ones = Array.fold_left (fun a v -> a + Bool.to_int v) 0 votes in
      List.for_all
        (fun rule ->
          Dut_protocol.Rule.count_decidable rule
          && Dut_protocol.Rule.apply rule votes
             = (ones >= Dut_protocol.Rule.accept_min rule ~k))
        [
          Dut_protocol.Rule.And; Dut_protocol.Rule.Or;
          Dut_protocol.Rule.Majority;
          Dut_protocol.Rule.Reject_threshold threshold;
          Dut_protocol.Rule.Accept_at_least threshold;
        ])

let test_custom_rule_not_count_decidable () =
  Alcotest.(check bool)
    "custom is not count-decidable" false
    (Dut_protocol.Rule.count_decidable
       (Dut_protocol.Rule.Custom ("any", fun _ -> true)));
  Alcotest.check_raises "accept_min on custom"
    (Invalid_argument "Rule.accept_min: custom rule has no count cutoff")
    (fun () ->
      ignore
        (Dut_protocol.Rule.accept_min
           (Dut_protocol.Rule.Custom ("any", fun _ -> true))
           ~k:4))

(* -- Batched draws ------------------------------------------------------- *)

let prop_sampler_draw_block_equals_scalar =
  QCheck.Test.make ~name:"Sampler.draw_block = scalar draws" ~count:200
    QCheck.(
      pair small_int (list_of_size Gen.(int_range 1 40) (int_range 1 100)))
    (fun (seed, weights) ->
      let total = float_of_int (List.fold_left ( + ) 0 weights) in
      let pmf =
        Dut_dist.Pmf.create
          (Array.of_list (List.map (fun w -> float_of_int w /. total) weights))
      in
      let s = Dut_dist.Sampler.of_pmf pmf in
      let a = rng seed and b = rng seed in
      let buf = Array.make 300 (-1) in
      Dut_dist.Sampler.draw_block s a buf;
      buf = Array.init 300 (fun _ -> Dut_dist.Sampler.draw s b)
      && Dut_prng.Rng.bits64 a = Dut_prng.Rng.bits64 b)

let prop_paninski_draw_block_equals_scalar =
  QCheck.Test.make ~name:"Paninski.draw_block = scalar draws" ~count:200
    QCheck.(pair small_int (int_range 0 8))
    (fun (seed, ell) ->
      let hard = Dut_dist.Paninski.random ~ell ~eps:0.3 (rng (seed + 1)) in
      let a = rng seed and b = rng seed in
      let buf = Array.make 257 (-1) in
      Dut_dist.Paninski.draw_block hard a buf;
      buf = Array.init 257 (fun _ -> Dut_dist.Paninski.draw hard b)
      && Dut_prng.Rng.bits64 a = Dut_prng.Rng.bits64 b)

let test_parallel_count_equals_init_fold () =
  (* The sequential scratch path of Parallel.count (borrowed child,
     split_into per index) must count exactly what a fold over the
     pre-split Parallel.init counts, and split the parent as often. *)
  let pred r _i = Dut_prng.Rng.unit_float r < 0.4 in
  for seed = 0 to 9 do
    let msg = Printf.sprintf "seed %d" seed in
    let ra = rng seed and rb = rng seed in
    let expected =
      Array.fold_left
        (fun acc hit -> acc + Bool.to_int hit)
        0
        (Dut_engine.Parallel.init ~jobs:1 ~rng:ra ~n:500 pred)
    in
    Alcotest.(check int) msg expected
      (Dut_engine.Parallel.count ~jobs:1 ~rng:rb ~n:500 pred);
    check_same_state msg ra rb
  done

let test_measure_jobs_invariant () =
  (* The full evaluation path — scratch samples, scratch Paninski,
     histogram collision counts — at several jobs counts. *)
  let tester = Dut_core.And_tester.tester ~n:256 ~eps:0.3 ~k:8 ~q:64 in
  let measure jobs =
    Dut_engine.Parallel.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () ->
        Dut_engine.Parallel.set_default_jobs (Dut_engine.Parallel.env_jobs ()))
      (fun () ->
        Dut_core.Evaluate.measure ~trials:60 ~rng:(rng 5) ~ell:7 ~eps:0.3
          tester)
  in
  let base = measure 1 in
  List.iter
    (fun jobs ->
      let p = measure jobs in
      Alcotest.(check (float 0.))
        (Printf.sprintf "uniform jobs=%d" jobs)
        base.uniform_accept.estimate p.uniform_accept.estimate;
      Alcotest.(check (float 0.))
        (Printf.sprintf "far jobs=%d" jobs)
        base.far_reject.estimate p.far_reject.estimate)
    [ 2; 4 ]

let prop_collisions_bounded_equals_collisions =
  QCheck.Test.make ~name:"collisions_bounded = collisions" ~count:300
    QCheck.(
      pair (int_range 1 400) (list_of_size Gen.(int_range 0 120) (int_range 0 10_000)))
    (fun (n, xs) ->
      let samples = Array.of_list (List.map (fun x -> x mod n) xs) in
      Dut_core.Local_stat.collisions_bounded ~n samples
      = Dut_core.Local_stat.collisions (Array.copy samples))

let prop_hist_counts_match_naive =
  QCheck.Test.make ~name:"scratch histogram counts match a naive table"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 80) (int_range 0 63))
    (fun xs ->
      let h = Dut_engine.Scratch.hist ~size:64 in
      let naive = Array.make 64 0 in
      List.for_all
        (fun v ->
          naive.(v) <- naive.(v) + 1;
          Dut_engine.Scratch.bump h v = naive.(v))
        xs
      && List.for_all (fun v -> Dut_engine.Scratch.count h v = naive.(v)) xs)

(* -- Warm-started search ------------------------------------------------- *)

let prop_search_seeded_equals_search =
  QCheck.Test.make ~name:"search_seeded = search for monotone predicates"
    ~count:500
    QCheck.(triple (int_range 1 60) (int_range 1 2000) (int_range 1 2000))
    (fun (lo, width, guess) ->
      let hi = lo + width in
      (* Thresholds inside, at, and outside the bracket. *)
      List.for_all
        (fun m ->
          let ok q = q >= m in
          let cold = Dut_stats.Critical.search ~lo ~hi ok in
          let seeded = Dut_stats.Critical.search_seeded ~lo ~hi ~guess ok in
          cold = seeded)
        [ lo; lo + (width / 2); hi; hi + 1 ])

let test_search_seeded_counts_fewer_probes_when_guess_is_close () =
  (* The point of warm-starting: a near-answer guess brackets in a few
     probes where the cold search doubles all the way up. *)
  let m = 700 in
  let probes search =
    let count = ref 0 in
    let ok q =
      incr count;
      q >= m
    in
    ignore (search ok);
    !count
  in
  let cold = probes (fun ok -> Dut_stats.Critical.search ~lo:1 ~hi:100_000 ok) in
  let warm =
    probes (fun ok ->
        Dut_stats.Critical.search_seeded ~lo:1 ~hi:100_000 ~guess:750 ok)
  in
  Alcotest.(check bool)
    (Printf.sprintf "warm %d < cold %d" warm cold)
    true (warm < cold)

(* -- Jobs clamping ------------------------------------------------------- *)

let test_effective_jobs_clamps () =
  let cores = Domain.recommended_domain_count () in
  Alcotest.(check int) "1 stays 1" 1 (Dut_engine.Pool.effective_jobs 1);
  Alcotest.(check int) "cores stays cores" cores
    (Dut_engine.Pool.effective_jobs cores);
  Alcotest.(check int) "oversubscription clamps" cores
    (Dut_engine.Pool.effective_jobs (cores + 37));
  let cfg =
    Dut_experiments.Config.make ~jobs:(cores + 5) Dut_experiments.Config.Fast
  in
  Alcotest.(check int) "Config.make clamps" cores cfg.jobs

let () =
  Alcotest.run "dut_hotpath"
    [
      ( "adaptive",
        [
          Alcotest.test_case "agrees with fixed verdict when decisive" `Quick
            test_adaptive_agrees_with_fixed_when_decisive;
          Alcotest.test_case "full budget = fixed estimate" `Quick
            test_adaptive_full_budget_equals_fixed;
          Alcotest.test_case "jobs-invariant incl. trials_used" `Quick
            test_adaptive_jobs_invariant;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "random_scratch = random" `Quick
            test_random_scratch_equals_random;
          Alcotest.test_case "draw_many_into = draw_many" `Quick
            test_draw_many_into_equals_draw_many;
          Alcotest.test_case "round = legacy allocating round" `Quick
            test_round_equals_legacy_allocating_round;
          Alcotest.test_case "legacy kernels = scratch kernels" `Quick
            test_legacy_kernels_equal_scratch_kernels;
          Alcotest.test_case "measure jobs-invariant" `Quick
            test_measure_jobs_invariant;
        ] );
      ( "counting referee",
        [
          Alcotest.test_case "round_accept = round for every rule" `Quick
            test_round_accept_equals_round;
          Alcotest.test_case "custom rule has no cutoff" `Quick
            test_custom_rule_not_count_decidable;
          Alcotest.test_case "Parallel.count = fold over init" `Quick
            test_parallel_count_equals_init_fold;
        ] );
      ( "search",
        [
          Alcotest.test_case "warm guess saves probes" `Quick
            test_search_seeded_counts_fewer_probes_when_guess_is_close;
        ] );
      ( "clamping",
        [ Alcotest.test_case "effective_jobs" `Quick test_effective_jobs_clamps ]
      );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_collisions_bounded_equals_collisions;
            prop_single_sample_equals_legacy;
            prop_hist_counts_match_naive;
            prop_search_seeded_equals_search;
            prop_accept_min_matches_apply;
            prop_sampler_draw_block_equals_scalar;
            prop_paninski_draw_block_equals_scalar;
          ] );
    ]
