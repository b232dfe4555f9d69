(* Order statistics shared by every workload.

   Timings are reported as a median plus the highest percentile that
   still has at least [beyond] samples above it, up to p99, so a tail
   figure is never read off a handful of points: 1000 samples support
   p99, 33 support p69.6, and fewer than 11 support no tail at all. *)

let beyond = 10

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an already sorted array: the value at
   rank ceil(p/100 * n), 1-based (the epsilon absorbs the rounding of
   p/100, so p99 of 1000 samples is rank 990, not 991). *)
let rank_of ~n p = max 1 (int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9)))

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.percentile_sorted: no samples";
  a.(min n (rank_of ~n p) - 1)

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pstats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile, in tenths of a percent and capped at 99,
   whose nearest rank leaves at least [beyond] samples above it.
   Integer arithmetic keeps the rank exact: p * n / 1000 <= n - beyond,
   so its ceiling is too. *)
let tail_percentile n =
  if n <= beyond then None
  else
    let tenths = min 990 (1000 * (n - beyond) / n) in
    Some (float_of_int tenths /. 10.)

type summary = {
  count : int;
  p50 : float;
  tail_pct : float option;
  tail : float option;  (** the value at [tail_pct] *)
}

let summarize xs =
  let a = sorted xs in
  let count = Array.length a in
  if count = 0 then { count; p50 = nan; tail_pct = None; tail = None }
  else
    let tail_pct = tail_percentile count in
    {
      count;
      p50 = median a;
      tail_pct;
      tail = Option.map (percentile_sorted a) tail_pct;
    }
