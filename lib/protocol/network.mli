(** The simultaneous-message network of Section 2.

    One round: each of k players privately draws q iid samples from the
    unknown distribution and sends a message to the referee, who outputs
    accept/reject. Players get independent RNG streams split from the
    round's root stream, so a whole round is a deterministic function of
    (root seed, distribution, player logic, rule) — runs are exactly
    reproducible and embarrassingly parallel. *)

type source = Dut_prng.Rng.t -> int
(** The unknown distribution, as a sampling oracle: one draw per call. *)

type player = index:int -> Dut_prng.Rng.t -> int array -> bool
(** A player's local algorithm: given its index, private coins and its
    sample tuple, vote [true] = accept. The sample tuple is a
    per-domain scratch buffer valid only for the duration of the call —
    copy it if it must outlive the vote. *)

type 'm messenger = index:int -> Dut_prng.Rng.t -> int array -> 'm
(** Generalization to r-bit (or arbitrary) messages. The same
    scratch-buffer lifetime rule as {!player} applies: the message must
    not alias the sample array. *)

type transcript = { votes : bool array; accept : bool }
(** What happened in one round. *)

val round :
  rng:Dut_prng.Rng.t ->
  source:source ->
  k:int ->
  q:int ->
  player:player ->
  rule:Rule.t ->
  transcript
(** Run one complete round with [k] players of [q] samples each.

    @raise Invalid_argument if [k <= 0] or [q < 0]. *)

val round_accept :
  rng:Dut_prng.Rng.t ->
  source:source ->
  k:int ->
  q:int ->
  player:player ->
  rule:Rule.t ->
  bool
(** [round_accept] is [(round ...).accept] — draw-for-draw the same
    round (same per-player split order, same fills) — but for
    count-decidable rules ({!Rule.count_decidable}) the referee counts
    votes against the precomputed {!Rule.accept_min} cutoff instead of
    materialising the vote vector, and the per-player coins recycle one
    scratch source re-seeded in place per player: the whole round
    allocates nothing. Falls back to {!round} verbatim for {!Rule.Custom}.

    @raise Invalid_argument if [k <= 0] or [q < 0]. *)

val round_rates :
  rng:Dut_prng.Rng.t ->
  source:source ->
  qs:int array ->
  player:player ->
  rule:Rule.t ->
  transcript
(** Asymmetric-cost variant (Section 6.2): player i draws [qs.(i)]
    samples. *)

val round_messages :
  rng:Dut_prng.Rng.t ->
  source:source ->
  k:int ->
  q:int ->
  messenger:'m messenger ->
  referee:('m array -> bool) ->
  bool
(** General-message round: players send values of any type; the referee
    is an arbitrary function of the message vector. Used by the r-bit
    protocol. *)

val round_fold :
  rng:Dut_prng.Rng.t ->
  source:source ->
  k:int ->
  q:int ->
  messenger:'m messenger ->
  init:'a ->
  f:('a -> 'm -> 'a) ->
  'a
(** Streaming variant of {!round_messages} for referees that reduce the
    message vector left-to-right: message i is folded into the
    accumulator as soon as player i sends it, so no k-length message
    array is materialized. Players draw from streams split in index
    order — exactly the streams {!round_messages} would give them — so
    [round_fold ~init:[] ~f:(fun acc m -> m :: acc)] reproduces the
    message vector (reversed) bit for bit. Used by the single-sample
    protocol, whose referee is a running collision count. *)

val of_sampler : Dut_dist.Sampler.t -> source
(** View a prepared alias sampler as a source. *)

val of_paninski : Dut_dist.Paninski.t -> source
(** View a hard-family member as a source (O(1) direct draws). *)

val uniform_source : n:int -> source
(** The null hypothesis U_n as a source. *)
