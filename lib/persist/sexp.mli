(** A minimal s-expression reader/printer: the text of design-object
    values (as put entries and checkpoints carry them) and of
    [remote batch] requests.  Atoms are bare words or double-quoted strings with the
    usual escapes; lists are parenthesized; [;] comments run to end of
    line. *)

type t =
  | Atom of string
  | List of t list
  | Text of string
      (** One s-expression kept as its flat text, the way a design
          value travels: {!Codec.value_to_sexp} prints one, the wire
          decoder {!check}s the bytes it receives and keeps them as
          one, and the value reader reads it once, with no tree in
          between.  It must hold exactly one well-formed
          s-expression.  It prints as its bytes when flat and as the
          tree it holds when pretty; the destructuring helpers refuse
          it, as text is read with {!of_string} or a direct reader. *)

exception Sexp_error of string

val to_string : ?pretty:bool -> t -> string
val of_string : string -> t
(** @raise Sexp_error on malformed input, trailing text, or lists
    nested deeper than {!max_depth}.  Never returns a [Text] leaf. *)

val check : string -> unit
(** Accept exactly what {!of_string} accepts, without building the
    tree: a scan that allocates nothing unless it raises.
    @raise Sexp_error as {!of_string} would. *)

val max_depth : int
(** How deep {!of_string} lets lists nest: far beyond anything the
    workspace formats write, low enough that a hostile input cannot
    exhaust the reader's stack. *)

(** {1 Direct reading and printing}

    What a codec that reads its payload straight off the text, and
    prints it straight into a buffer, is built on.  Readers raise
    {!Sexp_error} on malformed syntax. *)

type cursor
type token = Open | Close | Word | End

val cursor : string -> cursor

val peek : cursor -> token
(** What comes next, past white space and comments. *)

val enter : cursor -> unit
(** Past the [(] that {!peek} found, counting the depth against
    {!max_depth}. *)

val leave : cursor -> unit
(** Past the [)] that {!peek} found. *)

val atom_at : cursor -> string
(** The atom that {!peek} found, unquoted. *)

val int_at : cursor -> int
(** The atom that {!peek} found, as an integer ([int_of_string]'s
    syntax; plain decimals are read in place). *)

val word_index : cursor -> string array -> int
(** The index in the array of the bare atom that {!peek} found, the
    cursor then past it; -1, the cursor where it was, when the atom is
    quoted or not among them.  Compares in place: nothing is
    allocated. *)

val skip : cursor -> unit
(** Past one whole s-expression, checked but not built. *)

val finish : cursor -> unit
(** @raise Sexp_error unless only white space and comments remain. *)

val add_atom : Buffer.t -> string -> unit
(** An atom as {!to_string} prints it: bare, or quoted and escaped. *)

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
val as_list : t -> t list
val find_field_opt : t list -> string -> t list option
val one : string -> t list -> t
