(* Threshold testers are the clique comparison graph under a
   reject-threshold referee (fixed or calibrated): statistics, cutoffs
   and the majority calibration come from [Comparison_graph]; this
   module keeps the historical API, names, and validation messages. *)

type style =
  | Majority of { referee_cutoff : int }
  | Fixed of { t : int; local_cutoff : int }

type t = {
  n : int;
  eps : float;
  k : int;
  q : int;
  g : Comparison_graph.t;
  style : style;
}

let check ~n ~eps ~k ~q =
  if n <= 0 || k <= 0 || q < 0 then invalid_arg "Threshold_tester: bad sizes";
  if eps <= 0. || eps >= 1. then invalid_arg "Threshold_tester: eps out of (0,1)"

let clique ~q = Comparison_graph.build ~q Comparison_graph.Clique

let make_majority ~n ~eps ~k ~q ~calibration_trials ~rng =
  check ~n ~eps ~k ~q;
  if calibration_trials <= 0 then
    invalid_arg "Threshold_tester.make_majority: trials <= 0";
  let g = clique ~q in
  let cutoff =
    Comparison_graph.majority_referee_cutoff ~n ~eps ~k ~calibration_trials
      ~rng g
  in
  { n; eps; k; q; g; style = Majority { referee_cutoff = cutoff } }

let make_fixed ~n ~eps ~k ~q ~t =
  check ~n ~eps ~k ~q;
  if t < 1 || t > k then invalid_arg "Threshold_tester.make_fixed: t outside [1,k]";
  (* The most detection-friendly per-player alarm rate that still keeps
     the referee's null rejection probability (>= t alarms) comfortably
     under 1/3 (0.18, leaving Monte-Carlo and tail-model margin). *)
  let g = clique ~q in
  let false_alarm = Dut_stats.Tail.binomial_max_p ~k ~t ~level:0.18 in
  let local_cutoff = Comparison_graph.alarm_cutoff ~n g ~false_alarm in
  { n; eps; k; q; g; style = Fixed { t; local_cutoff } }

let referee_cutoff t =
  match t.style with
  | Majority { referee_cutoff } -> referee_cutoff
  | Fixed { t; _ } -> t

let accepts t rng source =
  (* Cutoffs are functions of the tester alone: computed here, once per
     round, not once per vote — the player closures compare against a
     captured constant. *)
  let player =
    match t.style with
    | Majority _ ->
        let cutoff = Comparison_graph.midpoint_cutoff ~n:t.n t.g ~eps:t.eps in
        fun ~index:_ _coins samples ->
          Local_stat.accepts_midpoint ~cutoff
            (Comparison_graph.statistic ~n:t.n t.g samples)
    | Fixed { local_cutoff; _ } ->
        fun ~index:_ _coins samples ->
          Local_stat.accepts_alarm ~cutoff:local_cutoff
            (Comparison_graph.statistic ~n:t.n t.g samples)
  in
  let rule = Dut_protocol.Rule.Reject_threshold (referee_cutoff t) in
  Dut_protocol.Network.round_accept ~rng ~source ~k:t.k ~q:t.q ~player ~rule

let tester_majority ~n ~eps ~k ~q ~calibration_trials ~rng =
  let t = make_majority ~n ~eps ~k ~q ~calibration_trials ~rng in
  {
    Evaluate.name = Printf.sprintf "majority(n=%d,k=%d,q=%d)" n k q;
    accepts = accepts t;
  }

let tester_fixed ~n ~eps ~k ~q ~t:thr =
  let t = make_fixed ~n ~eps ~k ~q ~t:thr in
  {
    Evaluate.name = Printf.sprintf "threshold-T=%d(n=%d,k=%d,q=%d)" thr n k q;
    accepts = accepts t;
  }
