(** A minimal growable array (OCaml 5.1 has no [Dynarray] yet). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val truncate : 'a t -> int -> unit
(** [truncate t n] drops elements so that [length t = n]. Requires
    [n <= length t]. *)

val drop_front : 'a t -> int -> unit
(** [drop_front t n] removes the first [n] elements, shifting the rest
    down; a backing array of more than 8 slots shrinks when a quarter or
    less of it stays in use. Requires [0 <= n <= length t]. *)

val last : 'a t -> 'a option
val iter : ('a -> unit) -> 'a t -> unit
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
val clear : 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_array : 'a t -> 'a array
