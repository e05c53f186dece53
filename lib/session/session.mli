(** The Hercules session model (section 4, Fig. 9).

    A session wraps an execution context with the four catalogs (flows,
    entities, tools, data) and the task-window state: a current flow
    under construction, per-node instance selections, and the expand /
    specialize / browse / run operations of the pop-up menu.  All four
    design approaches — goal-, tool-, data- and plan-based — funnel
    into this one interface. *)

open Ddf_graph
open Ddf_store

type t

val create : ?user:string -> Ddf_schema.Schema.t -> t
val of_context : Ddf_exec.Engine.context -> t
val context : t -> Ddf_exec.Engine.context

val pin : t -> Ddf_exec.Engine.view
(** Pin a lock-free read view of the session's store and history; pass
    it back via the [?view] parameters below to serve several reads
    from one frozen state. *)

val current_flow : t -> Task_graph.t

(** {1 Catalogs} *)

val entity_catalog : t -> string list
val tool_catalog : t -> string list
val data_catalog :
  ?filter:Store.filter -> ?view:Ddf_exec.Engine.view -> t -> Store.iid list
val flow_catalog : t -> string list

val catalog_flow : t -> string -> Task_graph.t option
(** Look a saved flow up by name. *)

val restore_flow : t -> string -> Task_graph.t -> unit
(** Install a flow in the catalog without touching the task window
    (used by workspace loading). *)

val save_flow : t -> string -> unit
(** Store the current flow in the flow catalog (for the plan-based
    approach). @raise Ddf_core.Error.Ddf_error on an empty flow. *)

val clear : t -> unit

(** {1 The four design approaches (section 3.4)} *)

val start_goal_based : t -> string -> int
(** Start from a goal entity picked in the entity catalog; returns the
    goal node. *)

val start_tool_based : t -> string -> int
(** Start from a tool. @raise Ddf_core.Error.Ddf_error for non-tools. *)

val goal_options : t -> int -> string list
(** Goal entities the tool node can produce. *)

val start_data_based : t -> Store.iid -> int
(** Start from an existing instance; the node is pre-selected. *)

val start_plan_based : t -> string -> int list
(** Load a catalog flow; returns its roots.
    @raise Ddf_core.Error.Ddf_error for unknown names. *)

(** {1 Pop-up menu operations (section 4.1)} *)

val expand :
  ?include_optional:bool -> ?reuse:(string * int) list -> t -> int -> int list

val expand_up :
  ?role:string -> ?include_optional:bool -> ?reuse:(string * int) list ->
  t -> int -> consumer:string -> int * int list

val unexpand : t -> int -> unit
(** Also drops selections of removed nodes. *)

val specialize : t -> int -> string -> unit
val specialization_options : t -> int -> string list

val browse :
  ?filter:Store.filter -> ?view:Ddf_exec.Engine.view -> t -> int ->
  Store.iid list
(** Instances selectable for a node: its entity and subtypes, under an
    optional browser filter.  [view] pins the store/history state to
    read from (defaults to a fresh {!pin} per call). *)

val select : t -> int -> Store.iid list -> unit
(** Select instances for a leaf; several instances mean fan-out
    execution. @raise Ddf_core.Error.Ddf_error on empty or incompatible
    selections. *)

val selection : t -> int -> Store.iid list option

val executable : t -> int -> bool
(** A node becomes executable once every leaf below it is selected. *)

val run : ?memo:bool -> t -> int -> Store.iid list
(** Run the sub-flow rooted at a node, fanning out over multi-instance
    selections; one result instance per combination. *)

val recall : t -> Store.iid -> int
(** Recall a previously executed task (section 4.1): the instance's
    flow trace becomes the current flow with leaf selections restored,
    ready to be modified and re-executed.  Returns the root node. *)

val history_of :
  ?view:Ddf_exec.Engine.view -> t -> Store.iid ->
  Task_graph.t * int * (int * Store.iid) list
(** The History pop-up (Fig. 10): the instance's derivation trace. *)

val trace_text : ?view:Ddf_exec.Engine.view -> t -> Store.iid -> string
(** The same trace as text: its {!Task_graph.to_ascii} tree and a line
    counting its instances, rendered in one walk over the history
    ({!Ddf_history.History.Snapshot.trace_text}). *)

val uses_of : ?view:Ddf_exec.Engine.view -> t -> Store.iid -> Store.iid list
(** "Use dependencies" browsing: instances derived from this one. *)

(** {1 Rendering (the task window and browser of Fig. 9)} *)

val render_task_window : t -> string
val render_browser :
  ?filter:Store.filter -> ?view:Ddf_exec.Engine.view -> t -> int -> string
