(** Payload typing: does a payload fit a schema entity?

    Keyed on the entity's root type so subtypes inherit the check;
    entities outside the known universe pass (schemas are extensible,
    their payloads constrained only by their encapsulations). *)

open Ddf_schema

exception Type_mismatch of string

val check : Schema.t -> string -> Ddf_data.value -> unit
(** @raise Type_mismatch when the payload cannot represent the entity. *)
