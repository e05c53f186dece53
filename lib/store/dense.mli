(** A persistent vector over dense int keys [0 .. length - 1]: a radix
    trie of 16-wide nodes with a 16-wide tail.  A read is at most one
    array per trie level (three up to 4,096 elements, four up to
    65,536), with no comparison or hashing; an update copies one path
    and leaves every earlier version readable and unchanged.  The
    store's instances and the history's records and per-instance links
    live in these, indexed by id - 1. *)

type 'a t

val empty : 'a t
val length : 'a t -> int

val get : 'a t -> int -> 'a
(** @raise Invalid_argument outside [0 .. length - 1]. *)

val get_opt : 'a t -> int -> 'a option

val push : 'a t -> 'a -> 'a t
(** Append at index [length]. *)

val set : ?fill:'a -> 'a t -> int -> 'a -> 'a t
(** [set v i x] replaces element [i].  At or past [length] it grows the
    vector: the indices between the old length and [i] get [fill].
    @raise Invalid_argument on a negative index, or when growing past
    [length] with no [fill]. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit
(** In ascending index order. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** In ascending index order. *)
