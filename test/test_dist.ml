(* Tests for dut_dist: pmf validation, distances, the alias sampler, the
   empirical histogram, and the Paninski hard family of Section 3. *)

open Dut_dist

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-4))

(* -- Pmf -------------------------------------------------------------- *)

let test_pmf_create_normalizes () =
  let p = Pmf.create [| 0.25; 0.25; 0.25; 0.25 |] in
  Alcotest.(check int) "size" 4 (Pmf.size p);
  check_float "prob" 0.25 (Pmf.prob p 0)

let test_pmf_create_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Pmf: negative or NaN mass")
    (fun () -> ignore (Pmf.create [| 0.5; -0.1; 0.6 |]))

let test_pmf_create_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Pmf: empty universe") (fun () ->
      ignore (Pmf.create [||]))

let test_pmf_create_rejects_bad_sum () =
  Alcotest.check_raises "bad sum"
    (Invalid_argument "Pmf.create: weights must sum to 1 (+-1e-6)") (fun () ->
      ignore (Pmf.create [| 0.5; 0.2 |]))

let test_pmf_strict () =
  let p = Pmf.create_exn_strict [| 0.5; 0.5 |] in
  check_float "strict ok" 0.5 (Pmf.prob p 0);
  Alcotest.check_raises "strict bad"
    (Invalid_argument "Pmf.create_exn_strict: weights must sum to 1 (+-1e-9)")
    (fun () -> ignore (Pmf.create_exn_strict [| 0.5; 0.5000001 |]))

let test_pmf_uniform () =
  let u = Pmf.uniform 10 in
  for i = 0 to 9 do
    check_float "uniform mass" 0.1 (Pmf.prob u i)
  done;
  Alcotest.check_raises "n=0" (Invalid_argument "Pmf.uniform: n must be positive")
    (fun () -> ignore (Pmf.uniform 0))

let test_pmf_point_mass () =
  let p = Pmf.point_mass ~n:5 2 in
  check_float "mass at point" 1. (Pmf.prob p 2);
  check_float "mass elsewhere" 0. (Pmf.prob p 0)

let test_pmf_prob_out_of_range () =
  let u = Pmf.uniform 3 in
  Alcotest.check_raises "index" (Invalid_argument "Pmf.prob: index out of range")
    (fun () -> ignore (Pmf.prob u 3))

let test_pmf_mix () =
  let p = Pmf.point_mass ~n:2 0 and q = Pmf.point_mass ~n:2 1 in
  let m = Pmf.mix 0.3 p q in
  check_float "mix left" 0.3 (Pmf.prob m 0);
  check_float "mix right" 0.7 (Pmf.prob m 1)

let test_pmf_collision_prob () =
  check_float "uniform collision" 0.125 (Pmf.collision_prob (Pmf.uniform 8));
  check_float "point mass collision" 1.
    (Pmf.collision_prob (Pmf.point_mass ~n:8 3))

let test_pmf_product () =
  let p = Pmf.create [| 0.25; 0.75 |] and q = Pmf.create [| 0.5; 0.3; 0.2 |] in
  let joint = Pmf.product p q in
  Alcotest.(check int) "size" 6 (Pmf.size joint);
  check_float "(0,0)" 0.125 (Pmf.prob joint 0);
  check_float "(1,2)" 0.15 (Pmf.prob joint 5);
  (* Marginals recovered by folding. *)
  let marg1 = Pmf.map_support joint (fun i -> i / 3) ~n:2 in
  check_float "first marginal" 0.25 (Pmf.prob marg1 0)

let test_pmf_map_support () =
  let u = Pmf.uniform 4 in
  let folded = Pmf.map_support u (fun i -> i / 2) ~n:2 in
  check_float "folded mass" 0.5 (Pmf.prob folded 0)

(* -- Distance --------------------------------------------------------- *)

let test_l1_known () =
  let p = Pmf.create [| 0.5; 0.5 |] and q = Pmf.create [| 0.25; 0.75 |] in
  check_float "l1" 0.5 (Distance.l1 p q);
  check_float "tv" 0.25 (Distance.tv p q)

let test_l1_self_zero () =
  let u = Pmf.uniform 7 in
  check_float "self distance" 0. (Distance.l1 u u)

let test_size_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Distance.l1: universe size mismatch") (fun () ->
      ignore (Distance.l1 (Pmf.uniform 2) (Pmf.uniform 3)))

let test_kl_known () =
  (* D([1/2,1/2] || [1/4,3/4]) in bits = 0.5 lg 2 + 0.5 lg (2/3). *)
  let p = Pmf.create [| 0.5; 0.5 |] and q = Pmf.create [| 0.25; 0.75 |] in
  check_float_loose "kl" 0.2075 (Distance.kl p q)

let test_kl_infinite () =
  let p = Pmf.point_mass ~n:2 0 and q = Pmf.point_mass ~n:2 1 in
  Alcotest.(check bool) "kl infinite" true (Distance.kl p q = infinity)

let random_pmf rng size =
  let w = Array.init size (fun _ -> 0.01 +. Dut_prng.Rng.unit_float rng) in
  let s = Array.fold_left ( +. ) 0. w in
  Pmf.create (Array.map (fun x -> x /. s) w)

let test_kl_nonneg_random () =
  let rng = Dut_prng.Rng.create 50 in
  for _ = 1 to 50 do
    let d = Distance.kl (random_pmf rng 6) (random_pmf rng 6) in
    if d < -1e-12 then Alcotest.failf "negative KL: %f" d
  done

let test_chi2_known () =
  let p = Pmf.create [| 0.5; 0.5 |] and q = Pmf.create [| 0.25; 0.75 |] in
  (* (0.25)^2/0.25 + (0.25)^2/0.75 = 1/3. *)
  check_float_loose "chi2" 0.333333 (Distance.chi2 p q)

let test_hellinger_range () =
  let p = Pmf.point_mass ~n:2 0 and q = Pmf.point_mass ~n:2 1 in
  check_float "max hellinger" 1. (Distance.hellinger p q);
  check_float "self hellinger" 0. (Distance.hellinger p p)

let test_hellinger_vs_tv () =
  (* H^2 <= TV <= sqrt(2) H, the classical comparison. *)
  let rng = Dut_prng.Rng.create 51 in
  for _ = 1 to 50 do
    let p = random_pmf rng 5 and q = random_pmf rng 5 in
    let h = Distance.hellinger p q and tv = Distance.tv p q in
    if (h *. h) > tv +. 1e-9 then Alcotest.fail "H^2 > TV";
    if tv > (sqrt 2. *. h) +. 1e-9 then Alcotest.fail "TV > sqrt2 H"
  done

let test_kl_bernoulli_complement () =
  check_float "kl(a,b) = kl(1-a,1-b)"
    (Distance.kl_bernoulli 0.3 0.6)
    (Distance.kl_bernoulli 0.7 0.4)

let test_chi2_bernoulli_dominates_kl () =
  let rng = Dut_prng.Rng.create 52 in
  for _ = 1 to 200 do
    let a = 0.01 +. (0.98 *. Dut_prng.Rng.unit_float rng) in
    let b = 0.01 +. (0.98 *. Dut_prng.Rng.unit_float rng) in
    let kl = Distance.kl_bernoulli a b in
    let bound = Distance.chi2_bernoulli_bound a b in
    if kl > bound +. 1e-9 then
      Alcotest.failf "Fact 6.3 violated at a=%f b=%f: %f > %f" a b kl bound
  done

(* -- Sampler ---------------------------------------------------------- *)

let test_sampler_support () =
  let rng = Dut_prng.Rng.create 53 in
  let s = Sampler.of_pmf (Pmf.create [| 0.5; 0.; 0.5 |]) in
  for _ = 1 to 1000 do
    let v = Sampler.draw s rng in
    if v = 1 then Alcotest.fail "drew a zero-mass element";
    if v < 0 || v > 2 then Alcotest.failf "out of support: %d" v
  done

let test_sampler_frequencies () =
  let rng = Dut_prng.Rng.create 54 in
  let p = Pmf.create [| 0.1; 0.2; 0.3; 0.4 |] in
  let s = Sampler.of_pmf p in
  let counts = Array.make 4 0 in
  let trials = 100000 in
  for _ = 1 to trials do
    let v = Sampler.draw s rng in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let freq = float_of_int c /. float_of_int trials in
      if Float.abs (freq -. Pmf.prob p i) > 0.01 then
        Alcotest.failf "freq %d: %f vs %f" i freq (Pmf.prob p i))
    counts

let test_sampler_point_mass () =
  let rng = Dut_prng.Rng.create 55 in
  let s = Sampler.of_pmf (Pmf.point_mass ~n:10 7) in
  for _ = 1 to 100 do
    Alcotest.(check int) "always the point" 7 (Sampler.draw s rng)
  done

let test_sampler_draw_many () =
  let rng = Dut_prng.Rng.create 56 in
  let s = Sampler.of_pmf (Pmf.uniform 4) in
  Alcotest.(check int) "count" 17 (Array.length (Sampler.draw_many s rng 17))

let test_sampler_pmf_accessor () =
  let s = Sampler.of_pmf (Pmf.uniform 5) in
  check_float "pmf roundtrip" 0.2 (Pmf.prob (Sampler.pmf s) 0)

(* -- Empirical -------------------------------------------------------- *)

let test_empirical_counts () =
  let h = Empirical.of_samples ~n:4 [| 0; 1; 1; 3; 3; 3 |] in
  Alcotest.(check int) "count 0" 1 (Empirical.count h 0);
  Alcotest.(check int) "count 1" 2 (Empirical.count h 1);
  Alcotest.(check int) "count 2" 0 (Empirical.count h 2);
  Alcotest.(check int) "count 3" 3 (Empirical.count h 3);
  Alcotest.(check int) "total" 6 (Empirical.total h)

let test_empirical_statistics () =
  let h = Empirical.of_samples ~n:4 [| 0; 1; 1; 3; 3; 3 |] in
  Alcotest.(check int) "distinct" 3 (Empirical.distinct h);
  Alcotest.(check int) "singletons" 1 (Empirical.singletons h);
  (* C(2,2) + C(3,2) = 1 + 3. *)
  Alcotest.(check int) "collision pairs" 4 (Empirical.collision_pairs h)

let test_empirical_to_pmf () =
  let h = Empirical.of_samples ~n:2 [| 0; 0; 1; 0 |] in
  check_float "pmf 0" 0.75 (Pmf.prob (Empirical.to_pmf h) 0)

let test_empirical_errors () =
  let h = Empirical.create 3 in
  Alcotest.check_raises "range" (Invalid_argument "Empirical.add: sample out of range")
    (fun () -> Empirical.add h 3);
  Alcotest.check_raises "empty pmf" (Invalid_argument "Empirical.to_pmf: no samples")
    (fun () -> ignore (Empirical.to_pmf h))

(* -- Paninski --------------------------------------------------------- *)

let test_paninski_pmf_sums_to_one () =
  let rng = Dut_prng.Rng.create 57 in
  for ell = 0 to 4 do
    let d = Paninski.random ~ell ~eps:0.3 rng in
    let p = Paninski.pmf d in
    let total = ref 0. in
    for i = 0 to Pmf.size p - 1 do
      total := !total +. Pmf.prob p i
    done;
    check_float "sums to 1" 1. !total
  done

let test_paninski_exactly_eps_far () =
  let rng = Dut_prng.Rng.create 58 in
  List.iter
    (fun eps ->
      let d = Paninski.random ~ell:3 ~eps rng in
      check_float "l1 distance is eps" eps
        (Distance.distance_to_uniformity (Paninski.pmf d)))
    [ 0.1; 0.25; 0.5; 0.9 ]

let test_paninski_encode_decode () =
  for i = 0 to 15 do
    let x, s = Paninski.decode i in
    Alcotest.(check int) "roundtrip" i (Paninski.encode ~x ~s)
  done

let test_paninski_matched_pairs () =
  (* nu_z(x,+1) + nu_z(x,-1) = 2/n: perturbation moves mass only within a
     matched pair. *)
  let rng = Dut_prng.Rng.create 59 in
  let d = Paninski.random ~ell:3 ~eps:0.4 rng in
  let n = Paninski.n d in
  for x = 0 to Paninski.m d - 1 do
    check_float "pair mass conserved"
      (2. /. float_of_int n)
      (Paninski.prob d (Paninski.encode ~x ~s:1)
      +. Paninski.prob d (Paninski.encode ~x ~s:(-1)))
  done

let test_paninski_draw_frequencies () =
  let rng = Dut_prng.Rng.create 60 in
  let d = Paninski.all_plus ~ell:2 ~eps:0.5 in
  let n = Paninski.n d in
  let counts = Array.make n 0 in
  let trials = 200000 in
  for _ = 1 to trials do
    let v = Paninski.draw d rng in
    counts.(v) <- counts.(v) + 1
  done;
  for i = 0 to n - 1 do
    let freq = float_of_int counts.(i) /. float_of_int trials in
    if Float.abs (freq -. Paninski.prob d i) > 0.01 then
      Alcotest.failf "draw frequency off at %d: %f vs %f" i freq (Paninski.prob d i)
  done

let test_paninski_mixture_uniform () =
  List.iter
    (fun ell ->
      let mix = Paninski.mixture_exact ~ell ~eps:0.7 in
      Alcotest.(check bool) "mixture is uniform" true
        (Distance.distance_to_uniformity mix < 1e-12))
    [ 0; 1; 2; 3 ]

let test_paninski_tuple_prob_product () =
  let rng = Dut_prng.Rng.create 61 in
  let d = Paninski.random ~ell:2 ~eps:0.3 rng in
  let expected = Paninski.prob d 1 *. Paninski.prob d 5 *. Paninski.prob d 2 in
  check_float "product law" expected (Paninski.tuple_prob d [| 1; 5; 2 |])

let test_paninski_claim31_exhaustive () =
  let rng = Dut_prng.Rng.create 62 in
  let d = Paninski.random ~ell:1 ~eps:0.45 rng in
  let n = Paninski.n d in
  for t0 = 0 to n - 1 do
    for t1 = 0 to n - 1 do
      let tuple = [| t0; t1 |] in
      check_float "claim 3.1"
        (Paninski.tuple_prob d tuple)
        (Paninski.tuple_prob_fourier d tuple)
    done
  done

let test_paninski_collision_prob () =
  (* ||nu_z||_2^2 = (1+eps^2)/n for every z. *)
  let rng = Dut_prng.Rng.create 63 in
  let d = Paninski.random ~ell:3 ~eps:0.3 rng in
  check_float "collision prob"
    ((1. +. (0.3 *. 0.3)) /. float_of_int (Paninski.n d))
    (Pmf.collision_prob (Paninski.pmf d))

let test_paninski_create_errors () =
  Alcotest.check_raises "z length"
    (Invalid_argument "Paninski.create: z must have length 2^ell") (fun () ->
      ignore (Paninski.create ~ell:2 ~eps:0.3 ~z:[| 1; -1 |]));
  Alcotest.check_raises "eps" (Invalid_argument "Paninski.create: eps out of [0,1)")
    (fun () -> ignore (Paninski.create ~ell:1 ~eps:1.0 ~z:[| 1; 1 |]));
  Alcotest.check_raises "z values"
    (Invalid_argument "Paninski.create: z entries must be +-1") (fun () ->
      ignore (Paninski.create ~ell:1 ~eps:0.3 ~z:[| 1; 0 |]))

(* -- qcheck ----------------------------------------------------------- *)

let pmf_pair_gen =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 2 8 in
      let mk =
        let* ws = list_size (return n) (float_range 0.01 1.) in
        let s = List.fold_left ( +. ) 0. ws in
        return (Pmf.create (Array.of_list (List.map (fun w -> w /. s) ws)))
      in
      pair mk mk)

let prop_pinsker =
  QCheck.Test.make ~name:"Pinsker: TV <= sqrt(ln2 KL / 2)" ~count:200
    pmf_pair_gen (fun (p, q) ->
      let kl = Distance.kl p q in
      kl = infinity || Distance.tv p q <= sqrt (log 2. *. kl /. 2.) +. 1e-9)

let prop_l1_symmetric =
  QCheck.Test.make ~name:"l1 is symmetric" ~count:200 pmf_pair_gen
    (fun (p, q) -> Float.abs (Distance.l1 p q -. Distance.l1 q p) < 1e-12)

let prop_claim31 =
  QCheck.Test.make ~name:"Claim 3.1 on random tuples" ~count:100
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 4) (int_bound 7)))
    (fun (seed, tuple) ->
      let ell = 1 in
      let n = 1 lsl (ell + 1) in
      let tuple = Array.of_list (List.map (fun t -> t mod n) tuple) in
      let rng = Dut_prng.Rng.create seed in
      let d = Paninski.random ~ell ~eps:0.35 rng in
      Float.abs
        (Paninski.tuple_prob d tuple -. Paninski.tuple_prob_fourier d tuple)
      < 1e-12)

(* -- Goodness of fit of the block samplers ------------------------------ *)

(* Pearson chi-square of observed cell counts against an exact pmf, with
   the upper-tail p-value from the Wilson-Hilferty cube-root normal
   approximation (accurate to a few percent in relative terms at the
   hundreds of degrees of freedom used here). *)
let chi2_p_value counts probs =
  let total = float_of_int (Array.fold_left ( + ) 0 counts) in
  let stat = ref 0. in
  Array.iteri
    (fun i c ->
      let e = total *. probs.(i) in
      let d = float_of_int c -. e in
      stat := !stat +. (d *. d /. e))
    counts;
  let dof = float_of_int (Array.length counts - 1) in
  let v = 2. /. (9. *. dof) in
  let z = (Float.cbrt (!stat /. dof) -. (1. -. v)) /. sqrt v in
  Dut_stats.Tail.normal_sf z

let p_floor = 1e-6

let counts_of ~cells buf =
  let counts = Array.make cells 0 in
  Array.iter (fun x -> counts.(x) <- counts.(x) + 1) buf;
  counts

(* The negative control: 1% of the mass moved onto the least likely
   cell. Its noncentrality at these draw counts is in the thousands, so
   a test that cannot reject it has no power. *)
let shifted probs =
  let j = ref 0 in
  Array.iteri (fun i p -> if p < probs.(!j) then j := i) probs;
  Array.mapi
    (fun i p -> (0.99 *. p) +. if i = !j then 0.01 else 0.)
    probs

let check_fit name ~draws probs draw_block =
  let cells = Array.length probs in
  let min_expected =
    float_of_int draws *. Array.fold_left Float.min 1. probs
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: >= 50 expected draws per cell (%.1f)" name
       min_expected)
    true (min_expected >= 50.);
  let buf = Array.make draws 0 in
  draw_block buf;
  let counts = counts_of ~cells buf in
  let p = chi2_p_value counts probs in
  Alcotest.(check bool)
    (Printf.sprintf "%s: chi-square p = %.3g >= %g" name p p_floor)
    true (p >= p_floor);
  let p_shifted = chi2_p_value counts (shifted probs) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: shifted pmf rejected (p = %.3g < %g)" name p_shifted
       p_floor)
    true (p_shifted < p_floor)

let test_sampler_block_fit () =
  let pmf = Families.zipf ~n:256 ~s:1. in
  let s = Sampler.of_pmf pmf in
  check_fit "zipf-256" ~draws:(1 lsl 17) (Pmf.to_array pmf)
    (Sampler.draw_block s (Dut_prng.Rng.create 4242))

let test_paninski_block_fit () =
  let rng = Dut_prng.Rng.create 4243 in
  let hard = Paninski.random_scratch ~ell:7 ~eps:0.5 rng in
  check_fit "paninski-ell7" ~draws:(1 lsl 16)
    (Pmf.to_array (Paninski.pmf hard))
    (Paninski.draw_block hard rng)

let () =
  Alcotest.run "dut_dist"
    [
      ( "pmf",
        [
          Alcotest.test_case "create" `Quick test_pmf_create_normalizes;
          Alcotest.test_case "reject negative" `Quick test_pmf_create_rejects_negative;
          Alcotest.test_case "reject empty" `Quick test_pmf_create_rejects_empty;
          Alcotest.test_case "reject bad sum" `Quick test_pmf_create_rejects_bad_sum;
          Alcotest.test_case "strict" `Quick test_pmf_strict;
          Alcotest.test_case "uniform" `Quick test_pmf_uniform;
          Alcotest.test_case "point mass" `Quick test_pmf_point_mass;
          Alcotest.test_case "prob range" `Quick test_pmf_prob_out_of_range;
          Alcotest.test_case "mix" `Quick test_pmf_mix;
          Alcotest.test_case "product" `Quick test_pmf_product;
          Alcotest.test_case "collision prob" `Quick test_pmf_collision_prob;
          Alcotest.test_case "map support" `Quick test_pmf_map_support;
        ] );
      ( "distance",
        [
          Alcotest.test_case "l1 known" `Quick test_l1_known;
          Alcotest.test_case "self zero" `Quick test_l1_self_zero;
          Alcotest.test_case "size mismatch" `Quick test_size_mismatch;
          Alcotest.test_case "kl known" `Quick test_kl_known;
          Alcotest.test_case "kl infinite" `Quick test_kl_infinite;
          Alcotest.test_case "kl non-negative" `Quick test_kl_nonneg_random;
          Alcotest.test_case "chi2 known" `Quick test_chi2_known;
          Alcotest.test_case "hellinger range" `Quick test_hellinger_range;
          Alcotest.test_case "hellinger vs tv" `Quick test_hellinger_vs_tv;
          Alcotest.test_case "kl bernoulli complement" `Quick test_kl_bernoulli_complement;
          Alcotest.test_case "Fact 6.3" `Quick test_chi2_bernoulli_dominates_kl;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "support" `Quick test_sampler_support;
          Alcotest.test_case "frequencies" `Quick test_sampler_frequencies;
          Alcotest.test_case "point mass" `Quick test_sampler_point_mass;
          Alcotest.test_case "draw many" `Quick test_sampler_draw_many;
          Alcotest.test_case "pmf accessor" `Quick test_sampler_pmf_accessor;
        ] );
      ( "empirical",
        [
          Alcotest.test_case "counts" `Quick test_empirical_counts;
          Alcotest.test_case "statistics" `Quick test_empirical_statistics;
          Alcotest.test_case "to pmf" `Quick test_empirical_to_pmf;
          Alcotest.test_case "errors" `Quick test_empirical_errors;
        ] );
      ( "paninski",
        [
          Alcotest.test_case "pmf sums to 1" `Quick test_paninski_pmf_sums_to_one;
          Alcotest.test_case "exactly eps-far" `Quick test_paninski_exactly_eps_far;
          Alcotest.test_case "encode/decode" `Quick test_paninski_encode_decode;
          Alcotest.test_case "matched pairs" `Quick test_paninski_matched_pairs;
          Alcotest.test_case "draw frequencies" `Quick test_paninski_draw_frequencies;
          Alcotest.test_case "mixture uniform" `Quick test_paninski_mixture_uniform;
          Alcotest.test_case "tuple product" `Quick test_paninski_tuple_prob_product;
          Alcotest.test_case "Claim 3.1 exhaustive" `Quick test_paninski_claim31_exhaustive;
          Alcotest.test_case "collision prob" `Quick test_paninski_collision_prob;
          Alcotest.test_case "create errors" `Quick test_paninski_create_errors;
        ] );
      ( "goodness of fit",
        [
          Alcotest.test_case "Sampler.draw_block chi-square" `Quick
            test_sampler_block_fit;
          Alcotest.test_case "Paninski.draw_block chi-square" `Quick
            test_paninski_block_fit;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pinsker; prop_l1_symmetric; prop_claim31 ] );
    ]
