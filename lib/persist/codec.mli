(** The design-data payload codec: flat s-expression text, printed
    straight from a value and read straight into one.

    Round-trip fidelity matters: gate and cell names survive (edit
    scripts reference them), floats are written exactly, and compiled
    simulators serialize their whole program. *)

exception Codec_error of string

val value_to_text : Ddf_data.value -> string
(** The value as flat s-expression text: the bytes a put entry, a
    checkpoint and a wire install carry. *)

val value_of_text : string -> Ddf_data.value
(** Read a value off its text in one scan, building no tree.
    @raise Codec_error on malformed text, including a syntax error and
    text that a payload's own constructor refuses. *)

val value_to_sexp : Ddf_data.value -> Sexp.t
(** [Text (value_to_text v)]. *)

val value_of_sexp : Sexp.t -> Ddf_data.value
(** A [Text] leaf is read as it is; a tree is printed flat and read
    the same way.
    @raise Codec_error as {!value_of_text}. *)
