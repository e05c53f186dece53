(** A persistent vector over dense int keys [0 .. length - 1]: a radix
    trie of 16-wide nodes with a 16-wide tail.  A read is at most one
    array per trie level (three up to 4,096 elements, four up to
    65,536), with no comparison or hashing; an update copies one path
    and leaves every earlier version readable and unchanged.  The
    store's instances and entity buckets and the history's records,
    per-instance links and version index live in these, indexed by
    id - 1 (a bucket by position). *)

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

(** {1 Building}

    A transient is a vector being built by one writer: reads see its
    writes, and nothing else sees them until {!freeze}.  An append is
    one array write; [freeze] lays a vector built from empty out once,
    bottom-up, with no path copy, and files appends to a non-empty one
    a leaf at a time, one path copy per 16 elements.  A write below the
    starting vector's length copies one path, as {!set} does. *)

type 'a transient

val transient : 'a t -> 'a transient
(** A transient starting from the vector, which stays unchanged. *)

val t_length : 'a transient -> int

val t_get : 'a transient -> int -> 'a
(** @raise Invalid_argument outside [0 .. t_length - 1]. *)

val t_push : 'a transient -> 'a -> unit

val t_set : ?fill:'a -> 'a transient -> int -> 'a -> unit
(** As {!set}, in place. *)

val freeze : 'a transient -> 'a t
(** The vector the transient holds; later writes to the transient do
    not change it. *)
