(** Raft wire types.

    The log entry payload is abstracted to a byte size plus an opaque tag:
    the transaction systems built on top only need replication {e timing}
    (when an entry becomes durable on a majority), not follower-side
    interpretation of the bytes. Entry application on followers is modelled
    by the commit index advancing. *)

type entry = {
  term : int;
  index : int;  (** 1-based log position *)
  size : int;  (** payload bytes, for network accounting *)
  tag : int;  (** opaque identifier, for tests and tracing *)
}

type message =
  | Request_vote of {
      term : int;
      candidate : int;
      last_log_index : int;
      last_log_term : int;
    }
  | Vote of { term : int; from : int; granted : bool }
  | Append_entries of {
      term : int;
      leader : int;
      prev_index : int;
      prev_term : int;
      entries : entry list;
      leader_commit : int;
      watermark : int;
          (** every member holds the log up to here, so the receiver may
              drop that prefix *)
      seq : int;  (** the sender's append counter, echoed by the reply *)
    }
  | Append_reply of {
      term : int;
      from : int;
      success : bool;
      match_index : int;  (** highest replicated index on success *)
      hint_index : int;  (** next-index backoff hint on failure *)
      seq : int;  (** [seq] of the AppendEntries this answers *)
    }

val message_bytes : message -> int
(** Approximate wire size, fed to the network model. The [watermark] and
    [seq] fields are not counted: they serve the simulator's log
    compaction, not the modelled protocol. *)
