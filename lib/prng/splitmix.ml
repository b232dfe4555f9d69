(* SplitMix64 over a 16-byte state: the 64-bit state at byte offset 0
   and, at 8, the seed of the child being split between [split_begin]
   and [split_finish]. The [Int64] arithmetic below is the textbook
   kernel; let-bound locals and the [%caml_bytes_get64u]/
   [%caml_bytes_set64u] accesses stay unboxed, so [next_into] and the
   split pair allocate nothing. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.make 16 '\000' in
  set64 t 0 seed;
  t

let copy = Bytes.copy

let[@inline] next_state s = Int64.add s golden_gamma

(* Stafford's "mix13" finalizer, the output function of SplitMix64. *)
let[@inline] mix s =
  let s = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let s = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 27)) 0x94D049BB133111EBL in
  Int64.logxor s (Int64.shift_right_logical s 31)

let[@inline] next t =
  let s = next_state (get64 t 0) in
  set64 t 0 s;
  mix s

let next_int64 t = next t

let next_into t dst off = set64 dst off (next t)

let split_begin parent child =
  let seed = next parent in
  set64 child 0 seed;
  set64 child 8 seed

let split_finish child = set64 child 0 (mix (Int64.lognot (get64 child 8)))

(* For splitting we use a second finalizer on the advanced state so the
   child's seed is decorrelated from the parent's output at the same
   state. *)
let mix_gamma s = Int64.logor (mix (Int64.logxor s 0xA5A5A5A5A5A5A5A5L)) 1L

let split t =
  let seed = next t in
  let s = next_state (get64 t 0) in
  set64 t 0 s;
  create (Int64.logxor seed (mix_gamma s))
