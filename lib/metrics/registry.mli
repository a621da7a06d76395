(** A time-series metrics registry for the simulator.

    Instruments are registered once (usually at cluster construction) and a
    sampler walks them on a fixed simulated-time interval, appending one
    {!window} per tick. Everything is pure observation: sampling draws no
    randomness and mutates no protocol state, so enabling the registry
    cannot change a run's results.

    Four instrument families:

    - {b gauges} — a closure sampled at each window boundary (queue depth,
      replication lag);
    - {b cumulatives} — a closure over an externally maintained monotone
      counter (messages sent, wounds); each window records the delta since
      the previous window;
    - {b counters} — an explicit handle bumped by instrumented code with
      {!add}; windows record deltas, {!counter_total} the running sum;
    - {b histograms} — {!Simstats.Histogram}-backed latency distributions
      fed with {!observe}, reported once per run rather than per window.

    A registry is created disabled; a disabled registry accepts
    registrations and {!add}/{!observe} calls (they stay cheap) but
    {!run_sampler} is a no-op, so the instrumentation burden on a normal
    run is a handful of dead branches. *)

type t

val create : unit -> t
(** A disabled registry with the default 100 ms sampling interval. *)

val enable : ?interval:Simcore.Sim_time.t -> t -> unit
(** Turn sampling on; [interval] (default 100 ms) is the window length. *)

val enabled : t -> bool
val interval : t -> Simcore.Sim_time.t

(** {2 Instruments} *)

val gauge : t -> string -> (unit -> float) -> unit
(** Instantaneous value sampled at each window boundary. *)

val cumulative : t -> string -> (unit -> int) -> unit
(** Monotone external counter; each window records its delta. The closure
    is read once at registration to baseline the first window. *)

type counter

val counter : t -> string -> counter
(** An explicit counter instrument; windows record per-window deltas. *)

val add : counter -> int -> unit
val counter_total : counter -> int

type hist

val histogram : t -> string -> hist

val observe : hist -> float -> unit
(** Record one sample (milliseconds; negatives clamp to 0). *)

val hist_count : hist -> int

val hist_percentile : hist -> p:float -> float
(** Approximate percentile ([p] in [\[0,1\]]); raises on an empty
    histogram, like [Simstats.Histogram.percentile]. *)

val histograms : t -> (string * hist) list
(** In registration order. *)

(** {2 Sampling} *)

type window = {
  w_start : Simcore.Sim_time.t;
  w_end : Simcore.Sim_time.t;
  samples : (string * float) list;
      (** one entry per gauge/cumulative/counter, in registration order *)
}

val sample_now : t -> now:Simcore.Sim_time.t -> unit
(** Close the current window at [now] and append it. Normally driven by
    {!run_sampler}; exposed for tests and end-of-run flushes. No-op when
    disabled or when [now] is not past the previous window's end. *)

val run_sampler : t -> engine:Simcore.Engine.t -> until:Simcore.Sim_time.t -> unit
(** Schedule self-rescheduling sampling events every {!interval} from the
    engine's current time up to and including [until]. Call once, before
    running the engine. No-op when disabled. *)

val windows : t -> window list
(** Chronological. *)

val reset : t -> now:Simcore.Sim_time.t -> unit
(** Drop collected windows, histograms contents and transaction records,
    and re-baseline every cumulative/counter and the window clock at [now].
    Registered instruments and handles stay valid. *)

val seal : t -> unit
(** End observation: stop sampling and drop every instrument — gauge and
    cumulative closures hold on to what they observe, typically a whole
    cluster — keeping the windows, histograms and transaction records. For
    registries kept past their run. *)

(** {2 Transaction lineage — feeds [Metrics.Attribution]}

    The workload driver retries an aborted transaction under a fresh
    attempt id, so the trace alone cannot connect attempts into logical
    transactions; the driver records the lineage here. *)

type attempt_rec = {
  a_txn : int;  (** the attempt's transaction id, as seen in the trace *)
  a_start : Simcore.Sim_time.t;
  a_end : Simcore.Sim_time.t;
  a_committed : bool;
  a_reads : int;  (** the transaction's read-set size *)
  a_reused : int;
      (** read keys this attempt claimed from the partial-abort
          validated-prefix cache; 0 for first attempts or with the cache off *)
}

type txn_rec = {
  born : Simcore.Sim_time.t;
  finished : Simcore.Sim_time.t;
  high : bool;
  attempts : attempt_rec list;  (** chronological *)
}

val note_txn : t -> txn_rec -> unit
val txn_records : t -> txn_rec list
(** Chronological by completion. *)
