(** Host-time spans recorded by the benchmark around each public call it
    makes into the simulator. Spans nest: a span opened while another is
    open records it as its parent. Host time is the process's CPU time
    (user + system), so time spent waiting for a core does not count. *)

type span = {
  id : int;  (** in opening order, from 0 *)
  name : string;  (** the layer call, e.g. ["workload.driver.run"] *)
  parent : int;  (** enclosing span's id, [-1] at top level *)
  start_s : float;  (** host CPU seconds since {!create} *)
  end_s : float;
}

type t

val create : unit -> t

val time : t -> string -> (unit -> 'a) -> 'a * float
(** [time t name f] runs [f] inside a span and returns its result with the
    span's host duration in CPU seconds. The span is closed on exceptions
    too. *)

val spans : t -> span list
(** Closed spans, in opening order. *)

val write : t -> string -> unit
(** Write the closed spans as JSON ([{"spans": [...]}]) to a file. *)
