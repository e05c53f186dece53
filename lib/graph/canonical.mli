(** Canonical forms for task graphs: comparison up to node renumbering.

    Used by the round-trip properties over the Fig. 3 representations
    and to check that all four design approaches reach the same flow.
    Sharing is captured (a node reused twice differs from two copies);
    the one undecidable-by-key pattern is symmetric sharing between
    structurally identical siblings, which no schema-driven flow here
    exhibits. *)

val canonical : Task_graph.t -> string
(** Deterministic serialization with canonical ids and explicit
    sharing; equal strings iff isomorphic graphs. *)

val equal : Task_graph.t -> Task_graph.t -> bool
