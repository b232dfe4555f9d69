(** xoshiro256++ pseudo-random number generator (Blackman & Vigna 2019).

    256 bits of state, period 2^256 − 1, excellent statistical quality and
    very fast. This is the workhorse generator behind {!Dut_prng.Rng}; it is
    seeded from {!Dut_prng.Splitmix} as its authors recommend.

    The state is four raw 64-bit words in a [Bytes.t], stepped with the
    textbook [Int64] kernel; a step allocates nothing. The draws that
    feed the hot path ({!bits63}, {!bits53}, {!low_bit}) return native
    ints: an [int64] result boxes when it crosses a module boundary,
    so only the cold {!next_int64} returns one. *)

type t
(** Mutable generator state. Never all-zero. *)

val create : int64 -> t
(** [create seed] seeds the four state words from a SplitMix64 stream
    started at [seed]. *)

val of_state : int64 -> int64 -> int64 -> int64 -> t
(** [of_state s0 s1 s2 s3] builds a generator from raw state words.

    @raise Invalid_argument if all four words are zero. *)

val copy : t -> t
(** Independent copy of the current state. *)

val reseed : t -> Splitmix.t -> unit
(** [reseed t sm] refills [t]'s four state words with successive draws
    from [sm], exactly as {!create} seeds a fresh generator — the
    in-place, allocation-free variant used to recycle one generator
    across protocol rounds. *)

val next_int64 : t -> int64
(** 64 fresh uniformly random bits. *)

val bits63 : t -> int
(** One step; the low 63 bits of the output as a two's-complement
    native int ([Int64.to_int] of {!next_int64}'s word): bit 62 lands
    in the sign bit, so callers mask. *)

val bits53 : t -> int
(** One step; the top 53 bits of the output, in [0, 2{^53}). *)

val low_bit : t -> int
(** One step; bit 0 of the output. *)

val jump : t -> unit
(** [jump t] advances [t] by 2^128 steps; used to derive long
    non-overlapping subsequences from a single stream. *)
