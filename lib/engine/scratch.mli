(** Per-domain scratch arenas for the Monte-Carlo hot path.

    The inner trial loops historically allocated fresh intermediate
    arrays — sample tuples, perturbation vectors, sorted copies — on
    every one of millions of trials. This module provides reusable
    per-domain buffers instead, cutting the per-trial minor-heap
    traffic to near zero without touching any computed value.

    Everything lives in {!Domain.DLS}: each domain owns a private
    arena, so no synchronisation is needed and concurrent pool tasks
    can never observe each other's scratch state. Reuse is invisible
    in the results by construction — callers fully overwrite what they
    borrow — so the engine's determinism contract ("bit-identical for
    every jobs count") is preserved.

    {b Discipline.} A borrowed buffer is private to the calling domain
    until released; release exactly what was borrowed. If user code
    raises between borrow and release, dropping the buffer is safe —
    it is simply collected — but it leaves the free list without that
    entry. *)

val borrow : len:int -> int array
(** [borrow ~len] returns an exact-length scratch buffer for this
    domain, reusing a previously released one when available. Contents
    are unspecified — callers must overwrite before reading.

    @raise Invalid_argument if [len < 0]. *)

val release : int array -> unit
(** Return a buffer obtained from {!borrow} to this domain's free
    list. Releasing a buffer that is still referenced elsewhere is a
    bug (the next borrower will overwrite it). *)

val borrow_floats : len:int -> float array
(** [borrow_floats ~len] is {!borrow} for float slabs: an exact-length
    flat (unboxed) float array private to this domain, contents
    unspecified. Used by the transform kernels whose per-call working
    set would otherwise be a fresh O(2{^b}) allocation.

    @raise Invalid_argument if [len < 0]. *)

val release_floats : float array -> unit
(** Return a slab obtained from {!borrow_floats} to this domain's free
    list; the same aliasing rule as {!release} applies. *)

type hist
(** A per-domain histogram over [0 .. size-1] with O(1) clearing:
    cells carry a generation stamp, so "clear" just bumps the
    generation instead of zeroing O(size) words. *)

val hist : size:int -> hist
(** [hist ~size] returns this domain's histogram, logically cleared,
    valid for values in [0 .. size-1]. The backing arrays grow
    monotonically to the largest size ever requested on the domain.
    Only one histogram per domain is live at a time: a second [hist]
    call invalidates the first (the statistic kernels that use it are
    leaf computations, so they never nest).

    @raise Invalid_argument if [size <= 0]. *)

val bump : hist -> int -> int
(** [bump h v] increments the count of value [v] and returns the new
    count (≥ 1). Values must lie in [0 .. size-1]. *)

val count : hist -> int -> int
(** Current count of [v] this generation (0 if never bumped). *)
