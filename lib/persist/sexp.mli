(** A minimal s-expression reader/printer: the workspace's on-disk
    syntax.  Atoms are bare words or double-quoted strings with the
    usual escapes; lists are parenthesized; [;] comments run to end of
    line. *)

type t =
  | Atom of string
  | List of t list

exception Sexp_error of string

val to_string : ?pretty:bool -> t -> string
val of_string : string -> t
(** @raise Sexp_error on malformed input or trailing text. *)

(** {1 Streaming printer}

    Pretty-print a long list item by item into a buffer, byte-identical
    to {!to_string} of the whole tree, without ever building the tree.
    [depth] is the nesting depth of the open list that receives the
    item: 0 for the outermost list, whose ['('] and [')'] the caller
    writes. *)

val add_item : Buffer.t -> depth:int -> first:bool -> t -> unit

val open_item : Buffer.t -> depth:int -> first:bool -> unit
(** Start an item that is itself a list: fill it with items at
    [depth + 1] and close it with [')']. *)

(** {1 Construction helpers} *)

val atom : string -> t
val int : int -> t
val float : float -> t
(** Hexadecimal float notation, so round trips are exact. *)

val bool : bool -> t
val list : t list -> t
val field : string -> t list -> t
(** [(name item ...)]. *)

(** {1 Destructuring helpers}

    Each raises {!Sexp_error} on shape mismatch. *)

val as_atom : t -> string
val as_int : t -> int
val as_float : t -> float
val as_bool : t -> bool
val as_list : t -> t list
val find_field : t list -> string -> t list
val find_field_opt : t list -> string -> t list option
val one : string -> t list -> t
