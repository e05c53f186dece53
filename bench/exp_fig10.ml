(* E10 / Fig. 10: browsing the design history -- backward and forward
   chaining, and queries by flow template. *)

open Ddf
open Bechamel
module E = Standard_schemas.E

let run () =
  Bench_util.header "E10" "Fig. 10: design-history queries";
  Bench_util.paper_claim
    "backward chaining reveals an instance's derivation; forward \
     chaining finds the data that depends on it; the task graph itself \
     is the query template";

  Bench_util.section "history browsing, regenerated";
  let w, v0, latest = Workloads.edit_history 4 in
  let v = Engine.pin (Workspace.ctx w) in
  let g, _root, binding =
    History.Snapshot.trace v.Engine.v_history v.Engine.v_store
      (Workspace.schema w) latest
  in
  Printf.printf "derivation of the newest version (%d instances):\n%s"
    (List.length binding) (Task_graph.to_ascii g);
  Printf.printf "forward chaining from the original: %d derived instances\n"
    (List.length (History.Snapshot.derived_instances v.Engine.v_history v0));

  Bench_util.section "chaining latency vs history depth";
  let rows =
    List.map
      (fun depth ->
        let w, v0, latest = Workloads.edit_history depth in
        let { Engine.v_store = st; v_history = h } =
          Engine.pin (Workspace.ctx w)
        in
        let back =
          Bench_util.time_us ~runs:7 (fun () ->
              History.Snapshot.backward_closure h latest)
        in
        let fwd =
          Bench_util.time_us ~runs:7 (fun () ->
              History.Snapshot.forward_closure h v0)
        in
        let trace =
          Bench_util.time_us ~runs:7 (fun () ->
              History.Snapshot.trace h st (Workspace.schema w) latest)
        in
        [
          string_of_int depth;
          string_of_int (History.Snapshot.size h);
          Printf.sprintf "%.1f" back;
          Printf.sprintf "%.1f" fwd;
          Printf.sprintf "%.1f" trace;
        ])
      [ 4; 16; 64; 256; 1024 ]
  in
  Bench_util.print_table
    [ "depth"; "records"; "backward us"; "forward us"; "trace us" ]
    rows;

  Bench_util.section "query by template";
  let w, _, _ = Workloads.edit_history 16 in
  let schema = Workspace.schema w in
  let g, out = Task_graph.create schema E.edited_netlist in
  let g, _ = Task_graph.expand g out in
  let v16 = Engine.pin (Workspace.ctx w) in
  let query () =
    History.Snapshot.query_template v16.Engine.v_history v16.Engine.v_store g
      ~bound:[]
  in
  Printf.printf "editing-task template matches %d derivations\n"
    (List.length (query ()));

  Bench_util.run_bechamel ~name:"fig10"
    [
      Test.make ~name:"template query over 16 edits" (Staged.stage query);
    ]
