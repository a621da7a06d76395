(** The open-loop workload driver (paper §5.1).

    Generates new transactions as a Poisson process at [rate_tps], spread
    round-robin over the cluster's client nodes. An aborted transaction is
    retried immediately with a fresh attempt id (retries do not count toward
    the input rate); after 100 failed attempts the transaction is recorded
    as failed and its latency excluded. Committed-transaction latency
    includes all retries.

    Statistics cover transactions born inside the measurement window
    [\[warmup, duration - cooldown\]]. *)

type config = {
  rate_tps : float;
  duration : Simcore.Sim_time.t;
  warmup : Simcore.Sim_time.t;
  cooldown : Simcore.Sim_time.t;
  high_fraction : float;  (** probability a new transaction is high-priority *)
  drain : Simcore.Sim_time.t;  (** extra time to let in-flight transactions finish *)
  seed : int;
  partial_abort : bool;
      (** retries claim the validated read prefix (versioned, server
          re-validated) instead of re-reading it — off by default, behavior
          byte-identical when off *)
}

val default_config : config
(** 20 simulated seconds at 50 txn/s, 5 s warmup/cooldown, 10% high
    priority — a scaled-down version of §5.1's 60 s / 10 s runs (the
    simulator is deterministic, so shorter runs suffice for stable
    percentiles). *)

type result = {
  high_latencies_ms : float array;  (** committed high-priority, in-window *)
  low_latencies_ms : float array;
  commit_log : (float * float * bool) array;
      (** every commit, windowed or not, in commit order:
          (born seconds, latency ms, is high priority) — the raw material
          for recovery-time analysis around an injected fault *)
  committed_high : int;
  committed_low : int;
  failed : int;  (** gave up after 100 attempts *)
  unfinished : int;  (** still incomplete when the run was cut off — should be ~0 *)
  total_attempts : int;
  total_aborts : int;
  spec_aborts : int;
      (** deterministic families only: in-epoch speculative re-executions
          (their replacement for client-visible retries); [0] elsewhere *)
  partial_restarts : int;
      (** retries that claimed at least one key from the validated-prefix
          cache; 0 with partial aborts off *)
  keys_reused : int;  (** total read keys claimed across all such retries *)
  keys_validated : int;
      (** the subset of claimed keys some server confirmed current and
          omitted from a reply — claims an attempt carried to its death
          unserved count as reused (the prefix was resumed) but not as
          validated *)
  goodput_high_tps : float;  (** in-window commits / window length *)
  goodput_low_tps : float;
  window_seconds : float;
}

val run : Txnkit.Cluster.t -> Txnkit.System.t -> gen:Gen.t -> config -> result
(** Runs the workload on an already-built cluster, then drains. The
    cluster's engine is advanced; a cluster should be used for one run. *)

val p95_high : result -> float
(** 95th-percentile latency (ms) of committed high-priority transactions;
    [nan] if none committed. *)

val p95_low : result -> float
