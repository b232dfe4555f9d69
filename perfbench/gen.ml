(* The load generator of the serve workloads: one process, at most a
   few Unix-socket connections, sending JSONL query lines on a
   precomputed schedule.

   Open loop: request i is due at a fixed time whatever happened to
   the requests before it, and its latency runs from that due time to
   its response line, so a stall in the system (or in the generator)
   is charged to every request it delays. How far behind schedule the
   generator itself ran is reported separately, as lateness. *)

let now () = float_of_int (Dut_obs.Span.now_ns ()) *. 1e-9

(* Seeded Poisson arrivals: [count] offsets in seconds from the phase
   start, exponential gaps of mean 1/rate. *)
let poisson_offsets ~seed ~rate ~count =
  let st = Random.State.make [| seed; count |] in
  let t = ref 0. in
  Array.init count (fun _ ->
      t := !t +. (-.Float.log (1. -. Random.State.float st 1.) /. rate);
      !t)

type accounting = {
  latency_s : float array;  (** due to response, answered requests only *)
  late_s : float array;  (** due to send, every sent request *)
  answered : int;
  missing : int;  (** never sent or never answered before the deadline *)
}

(* Pure: [due], [sent] and [recv] are absolute times on one clock, nan
   where the event never happened. *)
let account ~due ~sent ~recv =
  let n = Array.length due in
  let lat = ref [] and late = ref [] and missing = ref 0 in
  for i = n - 1 downto 0 do
    if not (Float.is_nan sent.(i)) then late := (sent.(i) -. due.(i)) :: !late;
    if Float.is_nan recv.(i) then incr missing
    else lat := (recv.(i) -. due.(i)) :: !lat
  done;
  let latency_s = Array.of_list !lat in
  {
    latency_s;
    late_s = Array.of_list !late;
    answered = Array.length latency_s;
    missing = !missing;
  }

(* The request id a response line carries: every line the server writes
   starts with {"id":N, *)
let response_id line =
  let prefix = "{\"id\":" in
  let lp = String.length prefix in
  if String.length line <= lp || String.sub line 0 lp <> prefix then None
  else
    match String.index_from_opt line lp ',' with
    | None -> None
    | Some j -> int_of_string_opt (String.sub line lp (j - lp))

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;
  mutable off : int;
  inbox : Buffer.t;
}

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
      Unix.set_nonblock fd;
      { fd; pending = Buffer.create 65536; off = 0; inbox = Buffer.create 65536 }
  | exception e ->
      Unix.close fd;
      raise e

let flush_conn c =
  let len = Buffer.length c.pending in
  if c.off < len then
    match
      Unix.single_write_substring c.fd (Buffer.contents c.pending) c.off
        (len - c.off)
    with
    | k ->
        c.off <- c.off + k;
        if c.off = len then begin
          Buffer.clear c.pending;
          c.off <- 0
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

type result = {
  acc : accounting;
  responses : string option array;  (** indexed like the request lines *)
  wall_s : float;  (** first due time to last response (or deadline) *)
}

(* Send [lines] (whose ids are [first_id + index]) at their [offsets]
   from now, round-robin over [conns] connections, never more than
   [window] outstanding (max_int for a pure open loop), and read until
   every line is answered or [grace_s] after the last due time. *)
let run ~socket ~conns ~window ~first_id ~lines ~offsets ~grace_s =
  let n = Array.length lines in
  let cs = Array.init conns (fun _ -> connect socket) in
  let start = now () in
  let due = Array.map (fun o -> start +. o) offsets in
  let sent = Array.make n nan and recv = Array.make n nan in
  let responses = Array.make n None in
  let next = ref 0 and got = ref 0 in
  let chunk = Bytes.create 65536 in
  let deadline = (if n = 0 then start else due.(n - 1)) +. grace_s in
  let take_lines c =
    let s = Buffer.contents c.inbox in
    let rec go from =
      match String.index_from_opt s from '\n' with
      | None -> from
      | Some j ->
          let line = String.sub s from (j - from) in
          (match response_id line with
          | Some id
            when id >= first_id && id < first_id + n
                 && Option.is_none responses.(id - first_id) ->
              let i = id - first_id in
              recv.(i) <- now ();
              responses.(i) <- Some line;
              incr got
          | _ -> ());
          go (j + 1)
    in
    let used = go 0 in
    Buffer.clear c.inbox;
    Buffer.add_substring c.inbox s used (String.length s - used)
  in
  let closed = ref false in
  while !got < n && (not !closed) && now () < deadline do
    let t = now () in
    while !next < n && due.(!next) <= t && !next - !got < window do
      let c = cs.(!next mod conns) in
      Buffer.add_string c.pending lines.(!next);
      Buffer.add_char c.pending '\n';
      sent.(!next) <- t;
      incr next
    done;
    Array.iter flush_conn cs;
    let wait =
      if !next < n && !next - !got < window then
        Float.max 0. (due.(!next) -. now ())
      else 0.05
    in
    let wfds =
      Array.to_list cs
      |> List.filter (fun c -> Buffer.length c.pending > c.off)
      |> List.map (fun c -> c.fd)
    in
    let rfds = Array.to_list (Array.map (fun c -> c.fd) cs) in
    match Unix.select rfds wfds [] (Float.min wait 0.05) with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun fd ->
            let c = List.find (fun c -> c.fd = fd) (Array.to_list cs) in
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> closed := true
            | k ->
                Buffer.add_subbytes c.inbox chunk 0 k;
                take_lines c
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
              ->
                ())
          readable
  done;
  let last =
    Array.fold_left (fun m r -> if Float.is_nan r then m else Float.max m r) start recv
  in
  Array.iter (fun c -> Unix.close c.fd) cs;
  let wall_s = (if !got < n then now () else last) -. start in
  { acc = account ~due ~sent ~recv; responses; wall_s }
