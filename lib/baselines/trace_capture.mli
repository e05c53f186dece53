(** Casotto-style design traces (DAC'90): the capture-everything
    baseline.

    A trace records tool invocations with no schema: anything is
    accepted, and existing traces replay as prototypes.  What the
    approach lacks — measured by experiment A2 — is methodology
    enforcement and generalized (entity-typed) indexing. *)

open Ddf_schema

type event = {
  ev_tool : string;
  ev_consumed : string list;   (** concrete object names *)
  ev_produced : string list;
}

type trace = {
  trace_name : string;
  events : event list;
}

type t

val create : unit -> t

val capture : t -> tool:string -> consumed:string list -> produced:string list -> unit
(** Capture accepts anything: that is the point. *)

val cut : t -> string -> trace
(** Close the current trace under a name and archive it. *)

val archive : t -> trace list

val replay : trace -> substitute:(string * string) list -> trace
(** A trace as a prototype for a new activity: substitute object
    names; unmapped names are kept. *)

val traces_touching : t -> string -> trace list
(** Indexing is by concrete name only; no entity-type queries exist. *)

type violation = {
  v_event : event;
  v_reason : string;
}

val check_against_schema :
  Schema.t -> typing:(string -> string option) -> trace -> violation list
(** Post-hoc legality check — possible only given the typing
    information traces themselves lack. *)
