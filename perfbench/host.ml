(* What a run records about the machine it ran on, read from /proc. *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* The aggregate "cpu" line of /proc/stat: user nice system idle iowait
   irq softirq steal ..., in clock ticks since boot. *)
let cpu_ticks () =
  match read_file "/proc/stat" with
  | None -> None
  | Some s -> (
      match String.split_on_char '\n' s with
      | first :: _ when String.length first > 4 && String.sub first 0 4 = "cpu " ->
          let fields =
            String.split_on_char ' ' first
            |> List.tl
            |> List.filter (( <> ) "")
            |> List.filter_map int_of_string_opt
          in
          if List.length fields >= 8 then Some (Array.of_list fields) else None
      | _ -> None)

(* Share of all CPU ticks between two readings that the hypervisor
   gave to other guests. *)
let steal_share before after =
  match (before, after) with
  | Some a, Some b ->
      let total = ref 0 in
      Array.iteri (fun i v -> if i < 8 then total := !total + (v - a.(i))) b;
      if !total <= 0 then Some 0.
      else Some (float_of_int (b.(7) - a.(7)) /. float_of_int !total)
  | _ -> None

let status_kb pid field =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> None
  | Some s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ k; v ] when k = field ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
             | _ -> None)

(* Peak resident set of a live process, in MB. *)
let peak_rss_mb pid =
  Option.map (fun kb -> float_of_int kb /. 1024.) (status_kb pid "VmHWM")

(* CPU seconds (user + system) a live process has used, from
   /proc/<pid>/stat: time the hypervisor stole is not charged to it. *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
      (* Fields after the parenthesised command name, which may hold spaces. *)
      match String.rindex_opt s ')' with
      | None -> None
      | Some j -> (
          let rest = String.split_on_char ' ' (String.sub s (j + 2) (String.length s - j - 2)) in
          match (List.nth_opt rest 11, List.nth_opt rest 12) with
          | Some u, Some st -> (
              match (int_of_string_opt u, int_of_string_opt st) with
              | Some u, Some st -> Some (float_of_int (u + st) /. 100.)
              | _ -> None)
          | _ -> None))

(* CPU seconds this process (all its domains) has used. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let children pid =
  match read_file (Printf.sprintf "/proc/%d/task/%d/children" pid pid) with
  | None -> []
  | Some s ->
      String.split_on_char ' ' s |> List.filter_map int_of_string_opt

(* [git] is read at the start of a run: [git describe] is a
   subprocess, spawned before the workload starts any domain. *)
let provenance ~git ~steal ~late_ms =
  let dirty = String.ends_with ~suffix:"-dirty" git in
  let open Dut_obs.Json in
  Obj
    [
      ("git", Str git);
      ("dirty", if git = "unknown" then Null else Bool dirty);
      ("nproc", int (Domain.recommended_domain_count ()));
      ("ocaml", Str Sys.ocaml_version);
      ("steal_share", match steal with Some s -> Num s | None -> Null);
      ("gen_late_p99_ms", match late_ms with Some l -> Num l | None -> Null);
    ]
