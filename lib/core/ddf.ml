(* Dynamically defined flows: the public facade.

   Re-exports every subsystem under one roof and provides [Workspace],
   a ready-to-use Hercules-style environment over the odyssey schema
   with the standard tool catalog installed. *)

module Error = Ddf_core.Error
module Fault = Ddf_fault.Fault
module Schema = Ddf_schema.Schema
module Standard_schemas = Ddf_schema.Standard_schemas
module Task_graph = Ddf_graph.Task_graph
module Sexp_form = Ddf_graph.Sexp_form
module Bipartite = Ddf_graph.Bipartite
module Canonical = Ddf_graph.Canonical
module Standard_flows = Ddf_graph.Standard_flows
module Store = Ddf_store.Store
module History = Ddf_history.History
module Value = Ddf_data
module Encapsulation = Ddf_tools.Encapsulation
module Standard_tools = Ddf_tools.Standard_tools
module Engine = Ddf_exec.Engine
module Parallel = Ddf_exec.Parallel
module Consistency = Ddf_exec.Consistency
module Typing = Ddf_exec.Typing
module Views = Ddf_views.Views
module Persist = Ddf_entry.Workspace_file
module Process = Ddf_process.Process
module Process_file = Ddf_process.Process_file
module Sexp = Ddf_persist.Sexp
module Codec = Ddf_persist.Codec
module Session = Ddf_session.Session
module Obs = Ddf_obs.Obs
module Metrics = Ddf_obs.Metrics
module Obs_sinks = Ddf_obs.Sinks
module Journal = Ddf_journal.Journal
module Cement = Ddf_cement.Cement
module Entry = Ddf_entry.Entry
module Wire = Ddf_wire.Wire
module Replica = Ddf_replica.Replica
module Server = Ddf_server.Server
module Client = Ddf_client.Client
module Sync = Ddf_sync.Sync

module Baselines = struct
  module Static_flow = Ddf_baselines.Static_flow
  module Freedom = Ddf_baselines.Freedom
  module Trace_capture = Ddf_baselines.Trace_capture
  module Make_style = Ddf_baselines.Make_style
  module Version_tree = Ddf_baselines.Version_tree
end

module Eda = struct
  module Logic = Ddf_eda.Logic
  module Netlist = Ddf_eda.Netlist
  module Circuits = Ddf_eda.Circuits
  module Stimuli = Ddf_eda.Stimuli
  module Waveform = Ddf_eda.Waveform
  module Sim_event = Ddf_eda.Sim_event
  module Sim_compiled = Ddf_eda.Sim_compiled
  module Device_model = Ddf_eda.Device_model
  module Layout = Ddf_eda.Layout
  module Extract = Ddf_eda.Extract
  module Lvs = Ddf_eda.Lvs
  module Transistor = Ddf_eda.Transistor
  module Pla = Ddf_eda.Pla
  module Performance = Ddf_eda.Performance
  module Plot = Ddf_eda.Plot
  module Optimize = Ddf_eda.Optimize
  module Edit_script = Ddf_eda.Edit_script
  module Hier = Ddf_eda.Hier
  module Blif = Ddf_eda.Blif
  module Vcd = Ddf_eda.Vcd

  module Rng = Ddf_eda.Rng
end

(* ------------------------------------------------------------------ *)
(* Workspace                                                           *)
(* ------------------------------------------------------------------ *)

module Workspace = struct
  module E = Standard_schemas.E

  type t = {
    session : Session.t;
    catalog_tools : (string * Ddf_store.Store.iid) list;
  }

  exception Workspace_error of string

  let catalog_tool_entities =
    [
      E.simulator; E.verifier; E.plotter; E.extractor; E.placer;
      E.pla_generator; E.simulator_compiler; E.transistor_expander;
    ]

  (* A fresh Hercules-style workspace: the odyssey schema, the standard
     registry, one catalog instance of each primitive tool, the default
     device models and default option sets. *)
  let create ?(user = "designer") () =
    let session = Session.create ~user Standard_schemas.odyssey in
    let ctx = Session.context session in
    let catalog_tools =
      List.map
        (fun entity -> (entity, Engine.install_tool ctx entity))
        catalog_tool_entities
    in
    ignore
      (Engine.install ctx ~entity:E.device_models ~label:"generic 800nm"
         (Ddf_data.Device_models Ddf_eda.Device_model.default));
    ignore
      (Engine.install ctx ~entity:E.sim_options ~label:"default sim options"
         (Ddf_data.Sim_options Ddf_data.default_sim_options));
    ignore
      (Engine.install ctx ~entity:E.placement_options ~label:"default placement"
         (Ddf_data.Placement_options Ddf_data.default_placement_options));
    { session; catalog_tools }

  (* Rebuild a workspace around an existing session (e.g. one loaded
     from disk): catalog tools are recovered as the first store
     instance of each primitive tool entity, installing any that are
     missing. *)
  let of_session session =
    let ctx = Session.context session in
    let catalog_tools =
      List.map
        (fun entity ->
          match
            Store.Snapshot.instances_of_entity (Store.snapshot ctx.Engine.store)
              entity
          with
          | iid :: _ -> (entity, iid)
          | [] -> (entity, Engine.install_tool ctx entity))
        catalog_tool_entities
    in
    { session; catalog_tools }

  let session w = w.session
  let ctx w = Session.context w.session
  let store w = (ctx w).Engine.store
  let history w = (ctx w).Engine.history
  let schema w = (ctx w).Engine.schema

  let tool w entity =
    match List.assoc_opt entity w.catalog_tools with
    | Some iid -> iid
    | None -> raise (Workspace_error ("no catalog tool " ^ entity))

  (* Three optimizer tool instances sharing one encapsulation. *)
  let install_optimizers w =
    List.map
      (fun strategy ->
        let name = Ddf_eda.Optimize.strategy_name strategy in
        ( strategy,
          Engine.install (ctx w) ~entity:E.optimizer ~label:("optimizer " ^ name)
            (Ddf_data.Tool (Ddf_data.Builtin ("optimizer:" ^ name))) ))
      Ddf_eda.Optimize.all_strategies

  let install_netlist w ?(label = "") ?(keywords = []) nl =
    let label = if label = "" then nl.Ddf_eda.Netlist.name else label in
    Engine.install (ctx w) ~entity:E.edited_netlist ~label ~keywords
      (Ddf_data.Netlist nl)

  let install_stimuli w ?(label = "stimuli") stimuli =
    Engine.install (ctx w) ~entity:E.stimuli ~label (Ddf_data.Stimuli stimuli)

  let install_layout w ?(label = "") layout =
    let label =
      if label = "" then layout.Ddf_eda.Layout.layout_name else label
    in
    Engine.install (ctx w) ~entity:E.edited_layout ~label
      (Ddf_data.Layout layout)

  let install_editor_session w ?(label = "editing session") script =
    Engine.install (ctx w) ~entity:E.netlist_editor ~label
      (Ddf_data.Tool (Ddf_data.Scripted_netlist_editor script))

  let install_layout_editor_session w ?(label = "layout session") edits =
    Engine.install (ctx w) ~entity:E.layout_editor ~label
      (Ddf_data.Tool (Ddf_data.Scripted_layout_editor edits))

  let default_device_models w =
    match
      Store.Snapshot.instances_of_entity (Store.snapshot (store w))
        E.device_models
    with
    | iid :: _ -> iid
    | [] -> raise (Workspace_error "no device models installed")

  (* Bindings for every unbound tool leaf of a flow, from the catalog:
     the common case when a flow only needs the standard tools. *)
  let bind_catalog_tools w flow ~already =
    let bound = List.map fst already in
    List.filter_map
      (fun nid ->
        if List.mem nid bound then None
        else
          let entity = Task_graph.entity_of flow nid in
          if Schema.is_tool (schema w) entity then
            match List.assoc_opt entity w.catalog_tools with
            | Some iid -> Some (nid, iid)
            | None -> None
          else None)
      (Task_graph.leaves flow)
    @ already

  let find_nodes flow entity =
    List.filter_map
      (fun (n : Task_graph.node) ->
        if n.Task_graph.entity = entity then Some n.Task_graph.nid else None)
      (Task_graph.nodes flow)

  let payload w iid = Engine.decode (Store.snapshot (store w)) iid

  let netlist_of w iid = Ddf_data.as_netlist (payload w iid)
  let layout_of w iid = Ddf_data.as_layout (payload w iid)
  let performance_of w iid = Ddf_data.as_performance (payload w iid)
  let verification_of w iid = Ddf_data.as_verification (payload w iid)
end
