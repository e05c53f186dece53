(** Encapsulations for every tool of the odyssey schema, binding the
    Fig. 1 / Fig. 2 entities to the substrate implementations. *)

val registry : unit -> Encapsulation.registry
(** The registry every workspace starts from, with the circuit
    composer and decomposer installed. *)

val default_tool_payload : string -> Ddf_data.value option
(** Catalog payload for a primitive tool entity, if it has one. *)
