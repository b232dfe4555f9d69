(** Uniformity testing in the LOCAL network model, by the reduction of
    the paper's reference [7] (and priced by Section 6.2).

    Every node of a connected graph draws q samples locally and computes
    a one-bit vote (midpoint collision cutoff). The votes are then
    aggregated over a BFS spanning tree by convergecast — each node
    forwards its subtree's reject count to its parent — the root applies
    a cutoff calibrated against the uniform null, and broadcasts the
    verdict back down. The LOCAL time is

      total = q (sampling at unit rate) + 2·height (aggregation),

    so on low-diameter topologies the simultaneous-model sample bounds
    (Theorems 1.1–1.3) dominate the cost, and on a path the aggregation
    term takes over — exactly the trade the T13 experiment tabulates.
    The message-passing itself runs on the {!Sync_net} simulator, so the
    round and message counts are measured, not assumed. *)

type t

val make :
  graph:Graph.t ->
  n:int ->
  eps:float ->
  q:int ->
  calibration_trials:int ->
  rng:Dut_prng.Rng.t ->
  t
(** Build the tester: BFS tree from node 0, root cutoff calibrated on
    simulated uniform vote rounds at false-alarm level 0.2.

    @raise Invalid_argument on a disconnected graph, bad sizes, or eps
    outside (0,1). *)

val null_reject_cutoff :
  k:int ->
  n:int ->
  eps:float ->
  q:int ->
  calibration_trials:int ->
  rng:Dut_prng.Rng.t ->
  int
(** The root's reject-count cutoff: the empirical false-alarm-0.2
    quantile of the number of rejecting midpoint votes among [k] nodes
    with [q] uniform samples each, over [calibration_trials] rounds on
    one split of [rng]. Shared with {!Gossip.decentralized_tester}. *)

type result = {
  accept : bool;  (** the verdict every node ends up holding *)
  rounds : int;  (** communication rounds executed (2·height) *)
  messages : int;  (** messages delivered during the execution *)
  max_message_bits : int;
      (** largest payload sent: ≤ ⌈lg(k+1)⌉ (a subtree reject count), so
          the protocol also runs unchanged in CONGEST(log n) — the other
          model [7] studied *)
  local_time : int;  (** q + rounds: the Section 6.2 cost *)
  all_agree : bool;  (** did the broadcast reach every node? *)
}

val run : t -> Dut_prng.Rng.t -> Dut_protocol.Network.source -> result
(** One full execution: sample, convergecast, decide, broadcast. *)

val tester :
  graph:Graph.t ->
  n:int ->
  eps:float ->
  q:int ->
  calibration_trials:int ->
  rng:Dut_prng.Rng.t ->
  Dut_core.Evaluate.tester
(** Package for the critical-q search (verdict only). *)

val height : t -> int
(** The spanning tree height (aggregation rounds each way). *)
