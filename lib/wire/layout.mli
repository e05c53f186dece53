(** Field layouts: each wire message described once, read four ways.

    A protocol declares each of its message types as a {!union}: one
    {!case} per constructor, carrying the tag byte, the verb and the
    field layout, plus one match from constructor to case (its
    {!view}).  The binary encoder and decoder (compiled from each case's
    layout when it is declared), the [remote batch] text printer and
    parser, and verb names are all read off those declarations. *)

exception Wire_error of string

val wire_errorf : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** An iovec-style frame list: header buffers interleaved with
    borrowed payload slices, flushed with one gathered write. *)
module Iovec : sig
  type slice = { io_base : string; io_off : int; io_len : int }

  val gather_write : Unix.file_descr -> slice array -> int -> int
  val of_string : string -> slice
  val total : slice list -> int
  val concat : slice list -> string
end

(** How one field travels: its binary form; its items in the text. *)
type _ fld =
  | Unit : unit fld                          (** nothing; nothing *)
  | Int : int fld                            (** 8 bytes LE; decimal *)
  | Float : float fld                        (** IEEE bits; hex float *)
  | Str : string fld                         (** u32 length, bytes; atom *)
  | Payload : string fld
      (** as [Str], but carried as its own slice from 512 bytes on *)
  | Sexp : Ddf_persist.Sexp.t fld
      (** a [Payload] of flat text, a [Text] leaf's bytes as they are;
          itself.  The decoder {!Ddf_persist.Sexp.check}s the bytes
          (a malformed value is a [Wire_error "install value: ..."])
          and hands them on as a [Text] leaf. *)
  | Flag : string * string -> bool fld       (** 0/1 byte; yes/no atom *)
  | Pair : 'a fld * 'b fld -> ('a * 'b) fld  (** one, then the other *)
  | Opt : 'a fld -> 'a option fld            (** 0/1 byte, value; or "-" *)
  | List : 'a fld -> 'a list fld             (** u32 count, each; (...) *)
  | Spread : 'a fld -> 'a list fld           (** as [List]; each, inline *)
  | Row : 'a fld -> 'a fld                   (** as is; (item...) *)
  | Form : string * 'a fld -> 'a fld         (** as is; (name item...) *)
  | Fields : 'a fld -> 'a fld
      (** as is; reads the remaining items as [Named] forms *)
  | Named : string * 'a fld -> 'a option fld
      (** as [Opt]; the [Form] when present *)
  | Named_list : string * 'a fld -> 'a list fld
      (** as [List]; the [Form] unless empty *)
  | Map : ('a -> 'b) * ('b -> 'a) * 'a fld -> 'b fld
      (** a record or code, carried as its layout's value *)
  | Union : 'a union -> 'a fld
      (** tag byte, then the case's fields; the verb alone when it has
          no fields, else (verb item...) *)
  | Nest : 'a union -> 'a list fld
      (** a batch: [List] of [Union]; each, inline.  The decoder refuses
          more than two levels (a batch in a batch, which the server
          answers positionally), so one frame cannot exhaust the
          stack. *)

and ('f, 'a) case
and 'a union
and 'a view = V : ('f, 'a) case * 'f -> 'a view

val ( ** ) : 'a fld -> 'b fld -> ('a * 'b) fld

val union : string -> 'a union
(** An empty union; the string names it in errors. *)

val case : 'a union -> int -> string -> 'f fld -> ('f -> 'a) -> ('f, 'a) case
(** [case u tag verb layout inj] adds a case to [u].
    @raise Invalid_argument when [tag] or [verb] is taken. *)

val described : 'a union -> ('a -> 'a view) -> 'a fld
(** Complete [u] with its view, the one match from a value to its case. *)

val verb : 'a union -> 'a -> string

val to_slices : 'a fld -> 'a -> Iovec.slice list
val to_string : 'a fld -> 'a -> string

val of_string : 'a fld -> string -> 'a
(** @raise Wire_error on malformed input, including trailing bytes. *)

val of_prefix : 'a fld -> string -> int -> 'a * int
(** [of_prefix f s pos] decodes [f] from the bytes at [pos] and returns
    it with the offset just past it: the bytes after it are left
    unread, unchecked and uncopied. *)

val of_substring : 'a fld -> string -> int -> int -> 'a
(** [of_substring f s pos len] is [of_string f (String.sub s pos len)]
    without the copy: the decoder reads no byte outside the [len] at
    [pos], and every string in the value is a copy of its own, so [s]
    may be a buffer that is reused once this returns. *)

(** {1 Streams}

    A document too large to build as one value (a checkpoint): a raw
    [head], then layouts one after the other, a section being a count
    and its rows.  Every [Int], length and count in a stream is an
    LEB128 varint.  [write], [write_each], [read] and [read_each]
    compile their layout when partially applied: bind them once.
    Readers raise {!Wire_error} on malformed input, and refuse a
    length or count beyond the bytes left before allocating. *)

type writer
type reader

val writer : head:string -> writer
val write : 'a fld -> writer -> 'a -> unit
val write_each : 'a fld -> writer -> ('b -> 'a) -> 'b list -> unit
(** The count of the list, then the row of each element. *)

val written : writer -> string
val reader : head:string -> string -> reader
val read : 'a fld -> reader -> 'a
val read_each : 'a fld -> reader -> ('a -> unit) -> unit
(** A section's rows, each passed on as it is decoded. *)

val read_end : reader -> unit

val to_sexp : 'a union -> 'a -> Ddf_persist.Sexp.t

val of_sexp : 'a union -> Ddf_persist.Sexp.t -> 'a
(** @raise Wire_error on malformed input. *)
