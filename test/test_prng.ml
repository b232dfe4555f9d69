(* Tests for the dut_prng library: generator determinism, splitting,
   bounded draws, and the distributional sanity of the samplers. *)

open Dut_prng

let check_float = Alcotest.(check (float 1e-9))

(* -- Splitmix ------------------------------------------------------- *)

let test_splitmix_deterministic () =
  let a = Splitmix.create 123L and b = Splitmix.create 123L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.next_int64 a) (Splitmix.next_int64 b)
  done

let test_splitmix_seed_sensitivity () =
  let a = Splitmix.create 1L and b = Splitmix.create 2L in
  let xa = Splitmix.next_int64 a and xb = Splitmix.next_int64 b in
  Alcotest.(check bool) "different seeds differ" true (xa <> xb)

let test_splitmix_copy_independent () =
  let a = Splitmix.create 7L in
  let _ = Splitmix.next_int64 a in
  let b = Splitmix.copy a in
  Alcotest.(check int64) "copy continues identically" (Splitmix.next_int64 a)
    (Splitmix.next_int64 b)

let test_splitmix_mix_nonzero () =
  (* mix is a bijection-ish finalizer; it should not collapse small inputs. *)
  let outs = List.init 64 (fun i -> Splitmix.mix (Int64.of_int i)) in
  let distinct = List.sort_uniq compare outs in
  Alcotest.(check int) "64 distinct outputs" 64 (List.length distinct)

let test_splitmix_split_diverges () =
  let a = Splitmix.create 99L in
  let child = Splitmix.split a in
  let xa = Splitmix.next_int64 a and xc = Splitmix.next_int64 child in
  Alcotest.(check bool) "parent and child streams differ" true (xa <> xc)

(* -- Xoshiro -------------------------------------------------------- *)

let test_xoshiro_deterministic () =
  let a = Xoshiro.create 5L and b = Xoshiro.create 5L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Xoshiro.next_int64 a) (Xoshiro.next_int64 b)
  done

let test_xoshiro_zero_state_rejected () =
  Alcotest.check_raises "all-zero state"
    (Invalid_argument "Xoshiro.of_state: all-zero state") (fun () ->
      ignore (Xoshiro.of_state 0L 0L 0L 0L))

let test_xoshiro_jump_changes_stream () =
  let a = Xoshiro.create 11L in
  let b = Xoshiro.copy a in
  Xoshiro.jump b;
  Alcotest.(check bool) "jumped stream differs" true
    (Xoshiro.next_int64 a <> Xoshiro.next_int64 b)

(* -- Rng ------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same ints" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_int_bounds () =
  let rng = Rng.create 2 in
  List.iter
    (fun bound ->
      for _ = 1 to 1000 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then
          Alcotest.failf "Rng.int %d returned %d" bound v
      done)
    [ 1; 2; 3; 7; 100; 1023; 1024; 1025 ]

let test_rng_int_invalid () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "int_in out of range: %d" v
  done

let test_rng_int_covers_all_values () =
  let rng = Rng.create 5 in
  let seen = Array.make 8 false in
  for _ = 1 to 2000 do
    seen.(Rng.int rng 8) <- true
  done;
  Alcotest.(check bool) "all 8 values seen" true (Array.for_all Fun.id seen)

let test_rng_unit_float_range () =
  let rng = Rng.create 6 in
  for _ = 1 to 10000 do
    let x = Rng.unit_float rng in
    if x < 0. || x >= 1. then Alcotest.failf "unit_float out of range: %f" x
  done

let test_rng_unit_float_mean () =
  let rng = Rng.create 7 in
  let total = ref 0. in
  let trials = 100000 in
  for _ = 1 to trials do
    total := !total +. Rng.unit_float rng
  done;
  let mean = !total /. float_of_int trials in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.01)

let test_rng_split_independence () =
  (* Children must not mirror the parent or each other. *)
  let parent = Rng.create 8 in
  let c1 = Rng.split parent and c2 = Rng.split parent in
  let s1 = Array.init 20 (fun _ -> Rng.bits64 c1) in
  let s2 = Array.init 20 (fun _ -> Rng.bits64 c2) in
  Alcotest.(check bool) "children differ" true (s1 <> s2)

let test_rng_split_n () =
  let rng = Rng.create 9 in
  let children = Rng.split_n rng 10 in
  Alcotest.(check int) "10 children" 10 (Array.length children);
  let firsts = Array.map (fun c -> Rng.bits64 c) children in
  let distinct = Array.to_list firsts |> List.sort_uniq compare in
  Alcotest.(check int) "children start differently" 10 (List.length distinct)

let test_bernoulli_extremes () =
  let rng = Rng.create 10 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.)
  done

let test_bernoulli_mean () =
  let rng = Rng.create 11 in
  let count = ref 0 in
  let trials = 50000 in
  for _ = 1 to trials do
    if Rng.bernoulli rng 0.3 then incr count
  done;
  let mean = float_of_int !count /. float_of_int trials in
  Alcotest.(check bool) "mean near 0.3" true (Float.abs (mean -. 0.3) < 0.01)

let test_binomial_support () =
  let rng = Rng.create 12 in
  for _ = 1 to 1000 do
    let v = Rng.binomial rng 20 0.4 in
    if v < 0 || v > 20 then Alcotest.failf "binomial out of support: %d" v
  done

let test_binomial_mean () =
  let rng = Rng.create 13 in
  let total = ref 0 in
  let trials = 20000 in
  for _ = 1 to trials do
    total := !total + Rng.binomial rng 50 0.2
  done;
  let mean = float_of_int !total /. float_of_int trials in
  Alcotest.(check bool) "mean near np=10" true (Float.abs (mean -. 10.) < 0.2)

let test_binomial_extremes () =
  let rng = Rng.create 14 in
  Alcotest.(check int) "p=0" 0 (Rng.binomial rng 100 0.);
  Alcotest.(check int) "p=1" 100 (Rng.binomial rng 100 1.);
  Alcotest.(check int) "n=0" 0 (Rng.binomial rng 0 0.5)

let test_poisson_moments () =
  let rng = Rng.create 25 in
  List.iter
    (fun lambda ->
      let trials = 30000 in
      let total = ref 0 and total_sq = ref 0 in
      for _ = 1 to trials do
        let v = Rng.poisson rng lambda in
        total := !total + v;
        total_sq := !total_sq + (v * v)
      done;
      let mean = float_of_int !total /. float_of_int trials in
      let var = (float_of_int !total_sq /. float_of_int trials) -. (mean *. mean) in
      (* Mean and variance both equal lambda. *)
      if Float.abs (mean -. lambda) > 0.05 *. (lambda +. 1.) then
        Alcotest.failf "poisson(%f) mean %f" lambda mean;
      if Float.abs (var -. lambda) > 0.1 *. (lambda +. 1.) then
        Alcotest.failf "poisson(%f) variance %f" lambda var)
    [ 0.5; 3.; 20.; 100. ]

let test_poisson_extremes () =
  let rng = Rng.create 26 in
  Alcotest.(check int) "lambda 0" 0 (Rng.poisson rng 0.);
  Alcotest.check_raises "negative" (Invalid_argument "Rng.poisson: negative lambda")
    (fun () -> ignore (Rng.poisson rng (-1.)))

let test_geometric_mean () =
  let rng = Rng.create 15 in
  let total = ref 0 in
  let trials = 20000 in
  for _ = 1 to trials do
    total := !total + Rng.geometric rng 0.25
  done;
  (* mean of failures-before-success = (1-p)/p = 3 *)
  let mean = float_of_int !total /. float_of_int trials in
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.) < 0.15)

let test_geometric_p1 () =
  let rng = Rng.create 16 in
  for _ = 1 to 100 do
    Alcotest.(check int) "p=1 is 0" 0 (Rng.geometric rng 1.)
  done

let test_geometric_invalid () =
  let rng = Rng.create 17 in
  Alcotest.check_raises "p=0" (Invalid_argument "Rng.geometric: p out of (0,1]")
    (fun () -> ignore (Rng.geometric rng 0.))

let test_shuffle_is_permutation () =
  let rng = Rng.create 18 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 Fun.id) sorted

let test_shuffle_moves_things () =
  let rng = Rng.create 19 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle_in_place rng a;
  Alcotest.(check bool) "not identity" true (a <> Array.init 100 Fun.id)

let test_choose () =
  let rng = Rng.create 20 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.choose rng a in
    Alcotest.(check bool) "element of array" true (Array.mem v a)
  done

let test_choose_empty () =
  let rng = Rng.create 21 in
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose rng [||]))

let test_sign_balance () =
  let rng = Rng.create 22 in
  let total = ref 0 in
  for _ = 1 to 10000 do
    total := !total + Rng.sign rng
  done;
  Alcotest.(check bool) "signs balance" true (abs !total < 300)

let test_rademacher_vector () =
  let rng = Rng.create 23 in
  let v = Rng.rademacher_vector rng 256 in
  Alcotest.(check int) "length" 256 (Array.length v);
  Array.iter
    (fun s -> Alcotest.(check bool) "entries +-1" true (s = 1 || s = -1))
    v

let test_float_bound () =
  let rng = Rng.create 24 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 3.5 in
    if x < 0. || x >= 3.5 then Alcotest.failf "float out of range: %f" x
  done;
  check_float "float 0 bound" 0. (Rng.float rng 0.)

(* -- Word kernel vs the Int64 reference ------------------------------ *)

(* Textbook splitmix64 and xoshiro256++, written independently of the
   production kernels (which step raw words in a [Bytes] state), so
   matching them word for word across seeds pins the streams. *)
let golden_gamma_ref = 0x9E3779B97F4A7C15L

let mix_ref z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let splitmix_ref seed =
  let state = ref seed in
  fun () ->
    state := Int64.add !state golden_gamma_ref;
    mix_ref !state

let rotl64 x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Textbook xoshiro256++ in Int64 over the state words [s], stepping
   them in place. *)
let xoshiro_ref_of_state s () =
  let result = Int64.add (rotl64 (Int64.add s.(0) s.(3)) 23) s.(0) in
  let t = Int64.shift_left s.(1) 17 in
  s.(2) <- Int64.logxor s.(2) s.(0);
  s.(3) <- Int64.logxor s.(3) s.(1);
  s.(1) <- Int64.logxor s.(1) s.(2);
  s.(0) <- Int64.logxor s.(0) s.(3);
  s.(2) <- Int64.logxor s.(2) t;
  s.(3) <- rotl64 s.(3) 45;
  result

(* Seeded exactly as [Xoshiro.create]: four splitmix64 words (all-zero
   guarded to s0 = 1). *)
let xoshiro_ref seed =
  let sm = splitmix_ref seed in
  let s = Array.init 4 (fun _ -> sm ()) in
  if Array.for_all (Int64.equal 0L) s then s.(0) <- 1L;
  xoshiro_ref_of_state s

(* The textbook jump: xor together the states at the set bits of the
   jump polynomial, stepping once per bit. *)
let xoshiro_ref_jump s =
  let next = xoshiro_ref_of_state s in
  let acc = Array.make 4 0L in
  Array.iter
    (fun c ->
      for b = 0 to 63 do
        if Int64.logand c (Int64.shift_left 1L b) <> 0L then
          Array.iteri (fun i w -> acc.(i) <- Int64.logxor acc.(i) w) s;
        ignore (next ())
      done)
    [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL;
       0x39ABDC4529B1661CL |];
  Array.blit acc 0 s 0 4

let kernel_seeds =
  [ 0L; 1L; -1L; 123456789L; 0xDEADBEEFL; Int64.min_int; Int64.max_int ]

let test_splitmix_matches_int64_reference () =
  List.iter
    (fun seed ->
      let t = Splitmix.create seed in
      let next = splitmix_ref seed in
      for i = 1 to 500 do
        Alcotest.(check int64)
          (Printf.sprintf "seed %Ld word %d" seed i)
          (next ()) (Splitmix.next_int64 t)
      done)
    kernel_seeds

let test_xoshiro_matches_int64_reference () =
  List.iter
    (fun seed ->
      let t = Xoshiro.create seed in
      let next = xoshiro_ref seed in
      for i = 1 to 500 do
        Alcotest.(check int64)
          (Printf.sprintf "seed %Ld word %d" seed i)
          (next ()) (Xoshiro.next_int64 t)
      done)
    kernel_seeds

let test_xoshiro_jump_matches_int64_reference () =
  List.iter
    (fun (s0, s1, s2, s3) ->
      let t = Xoshiro.of_state s0 s1 s2 s3 in
      let s = [| s0; s1; s2; s3 |] in
      Xoshiro.jump t;
      xoshiro_ref_jump s;
      let next = xoshiro_ref_of_state s in
      for i = 1 to 100 do
        Alcotest.(check int64)
          (Printf.sprintf "state %Ld word %d after jump" s0 i)
          (next ()) (Xoshiro.next_int64 t)
      done)
    [
      (1L, 0L, 0L, 0L);
      (-1L, -1L, -1L, -1L);
      (0x0123456789ABCDEFL, 0L, Int64.min_int, 42L);
      (123L, 456L, 789L, 1011L);
    ]

let test_splitmix_split_matches_int64_reference () =
  (* The child is seeded with the parent's next output xor a second
     finalizer of the state after it; the parent skips that state. *)
  List.iter
    (fun seed ->
      let t = Splitmix.create seed in
      let child = Splitmix.split t in
      let s1 = Int64.add seed golden_gamma_ref in
      let s2 = Int64.add s1 golden_gamma_ref in
      let gamma =
        Int64.logor (mix_ref (Int64.logxor s2 0xA5A5A5A5A5A5A5A5L)) 1L
      in
      let child_ref = splitmix_ref (Int64.logxor (mix_ref s1) gamma) in
      let parent_ref = splitmix_ref s2 in
      for i = 1 to 100 do
        Alcotest.(check int64)
          (Printf.sprintf "seed %Ld child word %d" seed i)
          (child_ref ()) (Splitmix.next_int64 child);
        Alcotest.(check int64)
          (Printf.sprintf "seed %Ld parent word %d" seed i)
          (parent_ref ()) (Splitmix.next_int64 t)
      done)
    kernel_seeds

let test_hot_draws_box_no_int64 () =
  (* A boxed [int64] crossing a module boundary costs 3 words per call,
     so a cap of 1 catches it. [unit_float] returns a boxed float of its
     own (2 words: no cross-module inlining in the default build), so
     its cap sits 1 word above that. *)
  let r = Rng.create 43 in
  let child = Rng.borrow_child () in
  let sink = ref 0 in
  let calls = 100_000 in
  let check name ~cap f =
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      f ()
    done;
    let w = (Gc.minor_words () -. before) /. float_of_int calls in
    if w >= cap then
      Alcotest.failf "%s: %.3f minor words per call (cap %.0f)" name w cap
  in
  check "bits63" ~cap:1. (fun () -> sink := !sink lxor Rng.bits63 r);
  check "bits53" ~cap:1. (fun () -> sink := !sink lxor Rng.bits53 r);
  check "bool" ~cap:1. (fun () -> if Rng.bool r then incr sink);
  check "int" ~cap:1. (fun () -> sink := !sink + Rng.int r 1000);
  check "unit_float" ~cap:3. (fun () -> if Rng.unit_float r < 0.5 then incr sink);
  check "split_into" ~cap:1. (fun () -> Rng.split_into r child);
  Rng.release_child child;
  ignore (Sys.opaque_identity !sink)

let test_unit_float_is_bits53_lattice () =
  (* unit_float is the 53-bit integer lattice scaled by 2^-53 — the
     identity the samplers' integer-compare fast paths rely on. *)
  let a = Rng.create 31 and b = Rng.create 31 in
  for _ = 1 to 2000 do
    check_float "lattice point"
      (float_of_int (Rng.bits53 b) *. 0x1.0p-53)
      (Rng.unit_float a)
  done

let test_borrow_child_streams_like_split () =
  let a = Rng.create 77 and b = Rng.create 77 in
  let c1 = Rng.split a in
  let c2 = Rng.borrow_child () in
  Rng.split_into b c2;
  let s1 = Array.init 10 (fun _ -> Rng.bits64 c1) in
  let s2 = Array.init 10 (fun _ -> Rng.bits64 c2) in
  Rng.release_child c2;
  Alcotest.(check (array int64)) "borrowed child streams like split" s1 s2

(* -- qcheck properties ---------------------------------------------- *)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int always within bounds" ~count:500
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, b) ->
      let bound = b + 1 in
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_split_deterministic =
  QCheck.Test.make ~name:"splitting is deterministic in the seed" ~count:200
    QCheck.small_int (fun seed ->
      let mk () =
        let r = Rng.create seed in
        let c = Rng.split r in
        (Rng.bits64 r, Rng.bits64 c)
      in
      mk () = mk ())

let prop_ints_into_equals_scalar =
  (* Same values AND the same post-state (checked through bits64): the
     batched fill consumes exactly the draws the scalar loop would. *)
  QCheck.Test.make ~name:"ints_into = scalar int loop" ~count:300
    QCheck.(triple small_int (int_range 1 2000) (int_range 0 300))
    (fun (seed, bound, len) ->
      let a = Rng.create seed and b = Rng.create seed in
      let buf = Array.make len 0 in
      Rng.ints_into a ~bound buf;
      let expected = Array.init len (fun _ -> Rng.int b bound) in
      expected = buf && Rng.bits64 a = Rng.bits64 b)

let prop_unit_floats_into_equals_scalar =
  QCheck.Test.make ~name:"unit_floats_into = scalar unit_float loop"
    ~count:300
    QCheck.(pair small_int (int_range 0 300))
    (fun (seed, len) ->
      let a = Rng.create seed and b = Rng.create seed in
      let buf = Array.make len 0. in
      Rng.unit_floats_into a buf;
      let expected = Array.init len (fun _ -> Rng.unit_float b) in
      expected = buf && Rng.bits64 a = Rng.bits64 b)

let prop_int_draws_are_bits64_views =
  (* Twin streams: each int-returning draw is a fixed view of the word
     [bits64] returns at the same position. *)
  QCheck.Test.make ~name:"bits63/bits53/bool = views of bits64" ~count:200
    QCheck.int64 (fun seed ->
      let a = Rng.of_int64 seed and b = Rng.of_int64 seed in
      let ok = ref true in
      for _ = 1 to 20 do
        if Rng.bits63 a <> Int64.to_int (Rng.bits64 b) then ok := false;
        if Rng.bits53 a <> Int64.to_int (Int64.shift_right_logical (Rng.bits64 b) 11)
        then ok := false;
        if Rng.bool a <> (Int64.logand (Rng.bits64 b) 1L = 1L) then ok := false
      done;
      !ok)

let prop_split_into_equals_split =
  (* Reseeding a scratch child in place must give the stream a fresh
     [split] would, twice in a row, and leave the parent identical. *)
  QCheck.Test.make ~name:"split_into = split (children and parent)" ~count:200
    QCheck.small_int (fun seed ->
      let a = Rng.create seed and b = Rng.create seed in
      let scratch = Rng.create 0 in
      let round () =
        let fresh = Rng.split a in
        Rng.split_into b scratch;
        Array.init 30 (fun _ -> Rng.bits64 fresh)
        = Array.init 30 (fun _ -> Rng.bits64 scratch)
      in
      round () && round () && Rng.bits64 a = Rng.bits64 b)

let () =
  Alcotest.run "dut_prng"
    [
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_splitmix_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_splitmix_copy_independent;
          Alcotest.test_case "mix injective on small ints" `Quick test_splitmix_mix_nonzero;
          Alcotest.test_case "split diverges" `Quick test_splitmix_split_diverges;
        ] );
      ( "xoshiro",
        [
          Alcotest.test_case "deterministic" `Quick test_xoshiro_deterministic;
          Alcotest.test_case "zero state rejected" `Quick test_xoshiro_zero_state_rejected;
          Alcotest.test_case "jump" `Quick test_xoshiro_jump_changes_stream;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "int covers all values" `Quick test_rng_int_covers_all_values;
          Alcotest.test_case "unit_float range" `Quick test_rng_unit_float_range;
          Alcotest.test_case "unit_float mean" `Quick test_rng_unit_float_mean;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "split_n" `Quick test_rng_split_n;
          Alcotest.test_case "float bound" `Quick test_float_bound;
        ] );
      ( "samplers",
        [
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli mean" `Quick test_bernoulli_mean;
          Alcotest.test_case "binomial support" `Quick test_binomial_support;
          Alcotest.test_case "binomial mean" `Quick test_binomial_mean;
          Alcotest.test_case "binomial extremes" `Quick test_binomial_extremes;
          Alcotest.test_case "poisson moments" `Quick test_poisson_moments;
          Alcotest.test_case "poisson extremes" `Quick test_poisson_extremes;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "geometric p=1" `Quick test_geometric_p1;
          Alcotest.test_case "geometric invalid" `Quick test_geometric_invalid;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "shuffle moves" `Quick test_shuffle_moves_things;
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "choose empty" `Quick test_choose_empty;
          Alcotest.test_case "sign balance" `Quick test_sign_balance;
          Alcotest.test_case "rademacher vector" `Quick test_rademacher_vector;
        ] );
      ( "pair kernel",
        [
          Alcotest.test_case "splitmix matches Int64 reference" `Quick
            test_splitmix_matches_int64_reference;
          Alcotest.test_case "xoshiro matches Int64 reference" `Quick
            test_xoshiro_matches_int64_reference;
          Alcotest.test_case "unit_float is the bits53 lattice" `Quick
            test_unit_float_is_bits53_lattice;
          Alcotest.test_case "borrowed child streams like split" `Quick
            test_borrow_child_streams_like_split;
        ] );
      ( "word kernel",
        [
          Alcotest.test_case "xoshiro jump matches Int64 reference" `Quick
            test_xoshiro_jump_matches_int64_reference;
          Alcotest.test_case "splitmix split matches Int64 reference" `Quick
            test_splitmix_split_matches_int64_reference;
          Alcotest.test_case "hot draws box no int64" `Quick
            test_hot_draws_box_no_int64;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_int_in_bounds; prop_split_deterministic;
            prop_ints_into_equals_scalar; prop_unit_floats_into_equals_scalar;
            prop_split_into_equals_split; prop_int_draws_are_bits64_views;
          ] );
    ]
