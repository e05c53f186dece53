(** A traditional version tree (Fig. 11(a)): the versioning baseline.

    A dedicated version store keeps an explicit parent pointer per
    version — and nothing else: ancestry yes, but not "which tool, with
    which other inputs, produced this version", which the flow trace
    answers for free.  Experiment E11 compares the two. *)

type vid = int

type version = private {
  vid : vid;
  parent : vid option;
  payload_hash : string;
  author : string;
  at : int;
}

type t

exception Version_error of string

val create : unit -> t

val check_in :
  t -> ?parent:vid -> payload_hash:string -> author:string -> at:int -> unit ->
  vid
(** @raise Version_error on an unknown parent. *)

val find : t -> vid -> version
val parent : t -> vid -> vid option
val children : t -> vid -> vid list
val size : t -> int
val roots : t -> vid list

val metadata_bytes : t -> int
(** Meta-data footprint: parent + hash + author + timestamp per
    version. *)

val tool_used : t -> vid -> string option
(** Always [None]: the expressiveness gap of Fig. 11. *)

val pp : Format.formatter -> t -> unit
