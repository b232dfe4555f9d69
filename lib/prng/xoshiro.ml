(* xoshiro256++ over a 40-byte state: words s0..s3 at byte offsets 0,
   8, 16, 24 and the last output at 32. ocamlopt keeps let-bound [Int64]
   locals and the [%caml_bytes_get64u]/[%caml_bytes_set64u] loads and
   stores unboxed, so [step] is the textbook kernel and allocates
   nothing. A function that returns an [int64] boxes its result when
   called from another module (no flambda, and dune's default profile
   compiles with -opaque), so the hot-path accessors convert to a
   native int here and never hand out an [int64]. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let out = 32

let of_state s0 s1 s2 s3 =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro.of_state: all-zero state";
  let t = Bytes.make 40 '\000' in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  t

(* Four successive SplitMix64 words, in place: [create] without the
   allocation, so one generator can be re-seeded across protocol
   rounds. SplitMix64 never yields four zero words in a row, but the
   guard keeps the state valid regardless: fall back to (1, 0, 0, 0). *)
let reseed t sm =
  Splitmix.next_into sm t 0;
  Splitmix.next_into sm t 8;
  Splitmix.next_into sm t 16;
  Splitmix.next_into sm t 24;
  if
    Int64.logor (Int64.logor (get64 t 0) (get64 t 8))
      (Int64.logor (get64 t 16) (get64 t 24))
    = 0L
  then set64 t 0 1L

let create seed =
  let t = Bytes.make 40 '\000' in
  reseed t (Splitmix.create seed);
  t

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] step t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  set64 t out (Int64.add (rotl (Int64.add s0 s3) 23) s0);
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 (Int64.logxor s2 tmp);
  set64 t 24 (rotl s3 45)

let next_int64 t =
  step t;
  get64 t out

let bits63 t =
  step t;
  Int64.to_int (get64 t out)

let bits53 t =
  step t;
  Int64.to_int (Int64.shift_right_logical (get64 t out) 11)

let low_bit t =
  step t;
  Int64.to_int (get64 t out) land 1

let jump_constants =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun c ->
      for b = 0 to 63 do
        if Int64.logand (Int64.shift_right_logical c b) 1L <> 0L then
          for w = 0 to 3 do
            set64 acc (8 * w) (Int64.logxor (get64 acc (8 * w)) (get64 t (8 * w)))
          done;
        step t
      done)
    jump_constants;
  Bytes.blit acc 0 t 0 32
