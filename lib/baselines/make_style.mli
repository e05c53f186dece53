(** A make-style timestamp build system: the consistency baseline.

    Make rebuilds a target whenever a dependency's mtime is newer,
    regardless of content; derivation-based memoization rebuilds only
    when actual inputs differ.  Experiment A3 measures the gap. *)

type rule = {
  target : string;
  deps : string list;
  cost_us : int;
}

type t

exception Make_error of string

val create : rule list -> t
(** @raise Make_error on duplicate targets. *)

val tick : t -> int

val touch : t -> string -> unit
(** Bump a source's mtime; content is irrelevant, as in touch(1). *)

type build_report = {
  rebuilt : string list;   (** recipes run, in order *)
  up_to_date : int;
  total_cost_us : int;
}

val build : t -> string -> build_report
(** Classic recursive make. @raise Make_error on missing sources. *)

val pp_report : Format.formatter -> build_report -> unit
