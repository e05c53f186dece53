(** The task execution engine: flow automation (section 3.3).

    Because tool and data dependencies are specified in the task
    schema, a complete flow sequences itself: the engine walks the
    graph's invocations in dependency order, resolves an encapsulation
    for each, runs it, stores the outputs and appends the derivation
    record to the design history.  Memoization doubles as the
    design-consistency service: a task whose exact tool and inputs were
    already run is looked up in the history instead of re-executed. *)

open Ddf_schema
open Ddf_graph
open Ddf_store
open Ddf_history
open Ddf_tools

type context = {
  schema : Schema.t;
  mutable store : string Store.t;
      (** each value as its flat text, read through {!payload}; swapped
          wholesale only by a replication snapshot reinstall
          ({!Ddf_journal}), everything else mutates it in place *)
  mutable history : History.t;
  registry : Encapsulation.registry;
  mutable clock : int;   (** logical time; advanced by {!tick} *)
  mutable user : string;
      (** identity stamped into new instances' meta-data; the design
          server rebinds it to the requesting client per operation *)
}

val create_context :
  ?user:string -> ?registry:Encapsulation.registry -> Schema.t -> context
(** A fresh context; the registry defaults to
    {!Standard_tools.registry}. *)

val tick : context -> int

type view = {
  v_store : string Store.snapshot;
  v_history : History.snapshot;
}
(** A pinned read view over a context: the store and history captured
    together, lock-free.  Every read through one view is repeatable —
    concurrent writer commits are invisible.  This is what the server's
    domain-pool read executor reads through. *)

val pin : context -> view
(** Capture a view (two atomic loads; the history side is captured
    first so the store side covers every instance its records
    mention). *)

val payload : context -> Store.iid -> Ddf_data.value
(** The decoded value behind an instance, through a cache of 256 slots
    keyed by content hash, shared by every domain and filled by {!put}.
    @raise Ddf_core.Error.Ddf_error as {!Store.payload}. *)

val decode : string Store.snapshot -> Store.iid -> Ddf_data.value
(** {!payload} through a snapshot (a pinned view's [v_store]). *)

val put :
  ?text:string -> context -> entity:string -> meta:Store.meta ->
  Ddf_data.value -> Store.iid
(** Store a value as its text ([text], else printed once), with no type
    check and no tick: {!install} adds those. *)

val install :
  context -> entity:string -> ?label:string -> ?comment:string ->
  ?keywords:string list -> ?user:string -> ?text:string -> Ddf_data.value ->
  Store.iid
(** Install a source design object (or a tool) through {!put}; [text]
    is a wire install's bytes.
    @raise Typing.Type_mismatch when the payload does not fit the entity. *)

val install_tool : context -> string -> Store.iid
(** Install a catalog tool with its default payload.
    @raise Ddf_core.Error.Ddf_error for tools without one. *)

type stats = {
  executed : int;    (** invocations actually run *)
  memo_hits : int;   (** invocations satisfied from the history *)
  composed : int;    (** composite entities assembled *)
}

type run = {
  assignment : (int * Store.iid) list;  (** node -> instance *)
  stats : stats;
  costs : (int list * int) list;
      (** per executed invocation: output nodes and simulated cost, in
          execution order — replayed by {!Parallel.schedule} *)
}

val execute :
  ?memo:bool -> context -> Task_graph.t -> bindings:(int * Store.iid) list ->
  run
(** Execute a flow.  [bindings] selects instances for leaves (and
    optionally pre-computed inner nodes); leaves filling only optional
    roles may stay unbound.  With [memo] (default), identical tasks are
    resolved from the history.

    The invocations run one at a time on the calling thread, in
    dependency order, each storing and recording its outputs before
    the next starts.  Fig. 6's parallelism of disjoint branches is
    {!Parallel.schedule}'s simulated machine pool over the returned
    [costs].  A behaviour that raises leaves the invocations committed
    before it in the store and history.
    @raise Ddf_core.Error.Ddf_error on unbound mandatory leaves,
    incompatible bindings or missing outputs. *)

val execute_fanout :
  ?memo:bool -> ?max_combinations:int -> context -> Task_graph.t ->
  bindings:(int * Store.iid list) list -> run list
(** Multi-instance selections (section 4.1): the flow runs once per
    combination. @raise Ddf_core.Error.Ddf_error past [max_combinations]. *)

val decompose : context -> Store.iid -> (string * Store.iid) list
(** Apply the implicit decomposition function of a composite instance,
    storing the parts and recording the derivation (section 3.1). *)

val result_of : run -> int -> Store.iid
(** @raise Ddf_core.Error.Ddf_error when the node was not computed. *)

val pp_stats : Format.formatter -> stats -> unit
