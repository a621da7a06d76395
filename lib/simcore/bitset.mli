(** A growable set of non-negative ints, one bit each.

    Built for dense ids such as attempt ids, which the workload driver
    counts from 1: a set over ids up to [n] costs [n / 8] bytes, against
    about five words per member for an [(int, unit) Hashtbl]. {!create}
    allocates nothing; the bytes grow (doubling) on the first {!add} past
    the current capacity. *)

type t

val create : unit -> t
val add : t -> int -> unit
(** Raises [Invalid_argument] on a negative id. *)

val mem : t -> int -> bool
(** [false] for any id never added, including negative ones. *)
