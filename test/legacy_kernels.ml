(* Reference bodies for the allocating kernels that the per-domain
   scratch kernels replaced, kept only as test oracles.

   Each body here is the pre-scratch shape of one hot-path kernel: a
   fresh child generator from [Rng.split] per player, a fresh sample
   tuple per player, a materialised message vector or counts matrix.
   They consume exactly the draws of the kernels they pin, in the same
   order, so a test can compare a kernel's result AND the generator's
   state after the call against its oracle; per-kernel equalities of
   that form compose into equality of whole evaluations.

   Kernels with a live oracle in the library are not repeated here:
   [Network.round_accept] is [(Network.round ...).accept],
   [Local_stat.collisions_bounded] is [Local_stat.collisions],
   [Paninski.random_scratch] is [Paninski.random], and
   [Parallel.count] is a fold over [Parallel.init]. [Network.round] is
   also [Network.round_rates ~qs:(Array.make k q)], but that round fills
   borrowed scratch buffers too, so the fully allocating seed round
   below stays as its second oracle. *)

(* The seed round: fresh sample tuples from [Array.init], the vote
   vector and the rule's verdict. *)
let round ~rng ~source ~k ~q ~player ~rule =
  let votes =
    Array.init k (fun i ->
        let coins = Dut_prng.Rng.split rng in
        let samples = Array.init q (fun _ -> source coins) in
        player ~index:i coins samples)
  in
  (votes, Dut_protocol.Rule.apply rule votes)

let round_messages ~rng ~source ~k ~q ~messenger ~referee =
  let messages =
    Array.init k (fun i ->
        let coins = Dut_prng.Rng.split rng in
        let samples = Array.init q (fun _ -> source coins) in
        messenger ~index:i coins samples)
  in
  referee messages

let round_fold ~rng ~source ~k ~q ~messenger ~init ~f =
  let acc = ref init in
  for i = 0 to k - 1 do
    let coins = Dut_prng.Rng.split rng in
    let samples = Array.init q (fun _ -> source coins) in
    acc := f !acc (messenger ~index:i coins samples)
  done;
  !acc

(* The single-sample referee before the counting fold: per-group
   partition tables from fresh arrays, players assigned to groups by an
   explicit contiguous-run table, (group, bucket) tuple messages, and a
   groups x buckets counts matrix. *)
let single_sample_accepts ~n ~eps ~k ~bits rng source =
  let cutoff = Dut_core.Single_sample.(cutoff (make ~n ~eps ~k ~bits)) in
  let buckets = 1 lsl bits in
  let groups = max 1 (min (k / 2) 8) in
  let block = n / buckets in
  let bucket_of =
    Array.init groups (fun _ ->
        let perm = Array.init n (fun i -> i) in
        Dut_prng.Rng.shuffle_in_place rng perm;
        let assignment = Array.make n 0 in
        Array.iteri (fun pos elt -> assignment.(elt) <- pos / block) perm;
        assignment)
  in
  let sizes =
    Array.init groups (fun g -> (k / groups) + if g < k mod groups then 1 else 0)
  in
  let group_of_player =
    let assignment = Array.make k 0 in
    let idx = ref 0 in
    Array.iteri
      (fun g kg ->
        for _ = 1 to kg do
          assignment.(!idx) <- g;
          incr idx
        done)
      sizes;
    assignment
  in
  let messenger ~index _coins samples =
    let g = group_of_player.(index) in
    (g, bucket_of.(g).(samples.(0)))
  in
  round_messages ~rng ~source ~k ~q:1 ~messenger ~referee:(fun messages ->
      let counts = Array.make_matrix groups buckets 0 in
      Array.iter (fun (g, b) -> counts.(g).(b) <- counts.(g).(b) + 1) messages;
      let colliding = ref 0 in
      Array.iter
        (Array.iter (fun c -> colliding := !colliding + (c * (c - 1) / 2)))
        counts;
      float_of_int !colliding < cutoff)

(* The LOCAL tester's null calibration before the scratch buffer: a
   fresh [Array.init q (Rng.int r n)] sample tuple for every simulated
   vote. *)
let local_null_reject_cutoff ~k ~n ~eps ~q ~calibration_trials ~rng =
  let calibration_rng = Dut_prng.Rng.split rng in
  let null_rejects r =
    let count = ref 0 in
    for _ = 1 to k do
      let samples = Array.init q (fun _ -> Dut_prng.Rng.int r n) in
      if not (Dut_core.Local_stat.vote_midpoint ~n ~q ~eps samples) then incr count
    done;
    !count
  in
  Dut_protocol.Calibrate.reject_count_cutoff ~trials:calibration_trials
    calibration_rng ~rejects:null_rejects ~level:0.2
