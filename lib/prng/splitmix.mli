(** SplitMix64 pseudo-random number generator (Steele, Lea & Flood 2014).

    A tiny, fast, splittable generator with a 64-bit state. It passes
    BigCrush when used as a stream and, crucially for this project, supports
    {e splitting}: deriving statistically independent child generators from
    a parent. We use it both as a stand-alone generator and as the seeding
    mechanism for {!Dut_prng.Xoshiro}.

    The state is a raw 64-bit word in a [Bytes.t], stepped with the
    textbook [Int64] kernel ({!next_state}, {!mix}). The in-place entry
    points ({!next_into}, {!split_begin}, {!split_finish}) allocate
    nothing and hand no [int64] across the module boundary. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator. Distinct seeds give streams that
    are independent for all practical purposes. *)

val copy : t -> t
(** [copy t] is a generator with the same state that evolves independently
    from [t] afterwards. *)

val next_int64 : t -> int64
(** [next_int64 t] advances the state and returns 64 uniformly random
    bits. *)

val next_state : int64 -> int64
(** [next_state s] is the raw state transition (adds the golden-gamma
    constant). Exposed for testing and for stateless derivations. *)

val mix : int64 -> int64
(** [mix s] is the SplitMix64 output function (variant "mix13" of
    Stafford). A high-quality 64-bit finalizer; also useful as a hash. *)

val split : t -> t
(** [split t] advances [t] and returns a child generator whose stream is
    independent of the parent's subsequent outputs. *)

val next_into : t -> Bytes.t -> int -> unit
(** [next_into t dst off] is {!next_int64} with the word stored at byte
    offset [off] of [dst] (native endianness, unchecked: [off + 8] must
    not exceed [Bytes.length dst]) instead of returned. *)

val split_begin : t -> t -> unit
(** [split_begin parent child] draws one word from [parent] and makes it
    [child]'s state, also keeping it aside for {!split_finish}. The
    caller may then draw from [child] (e.g. {!Xoshiro.reseed}). *)

val split_finish : t -> unit
(** [split_finish child] sets [child]'s state to [mix (lognot seed)],
    where [seed] is the word of the last {!split_begin} into [child].
    Together the pair re-seeds a recycled child without allocating. *)
