(* E9 / Fig. 9: the Hercules user interface -- catalogs, the task
   window, and the instance browser with its filters. *)

open Ddf
open Bechamel
module E = Standard_schemas.E

let run () =
  Bench_util.header "E9" "Fig. 9: one interface, four approaches, a browser";
  Bench_util.paper_claim
    "Hercules uses the same visual task-graph interface for every design \
     approach; the browser filters instances by user, date and keywords";

  Bench_util.section "the task window and browser, regenerated";
  let w = Workspace.create ~user:"sutton" () in
  let ctx = Workspace.ctx w in
  List.iter
    (fun (user, label, keywords) ->
      ignore
        (Engine.install ctx ~entity:E.edited_netlist ~label ~keywords ~user
           (Value.Netlist (Eda.Circuits.full_adder ()))))
    [
      ("jbb", "Low pass filter", [ "analog" ]);
      ("director", "CMOS Full adder", [ "cmos" ]);
      ("sutton", "Operational Amplifier", [ "analog" ]);
    ];
  let session = Workspace.session w in
  let perf = Session.start_goal_based session E.performance in
  ignore (Session.expand session perf);
  print_string (Session.render_task_window session);
  let flow = Session.current_flow session in
  (match Workspace.find_nodes flow E.circuit with
  | [ c ] ->
    ignore (Session.expand session c);
    let flow = Session.current_flow session in
    (match Workspace.find_nodes flow E.netlist with
    | [ n ] -> print_string (Session.render_browser session n)
    | _ -> ())
  | _ -> ());

  Bench_util.section "browser filter latency vs store size";
  let rows =
    List.concat_map
      (fun n ->
        let w = Workloads.populated_store n in
        let store = Store.snapshot (Workspace.store w) in
        let run_filter name filter =
          let us =
            Bench_util.time_us ~runs:7 (fun () ->
                Store.Snapshot.browse store filter)
          in
          [ string_of_int n; name;
            string_of_int (List.length (Store.Snapshot.browse store filter));
            Printf.sprintf "%.1f" us ]
        in
        [
          run_filter "by user"
            { Store.any_filter with Store.f_user = Some "sutton" };
          run_filter "by date window"
            { Store.any_filter with Store.f_from = Some (n / 4);
              Store.f_to = Some (n / 2) };
          run_filter "by keyword"
            { Store.any_filter with Store.f_keywords = [ "cmos" ] };
          run_filter "by entity+keyword"
            { Store.any_filter with Store.f_entities = Some [ E.edited_netlist ];
              Store.f_keywords = [ "cmos" ] };
          run_filter "by text"
            { Store.any_filter with Store.f_text = Some "design 7" };
        ])
      [ 100; 1000; 10_000 ]
  in
  Bench_util.print_table
    [ "instances"; "filter"; "hits"; "latency us" ]
    rows;

  Bench_util.section "workspace persistence vs store size";
  let rows =
    List.map
      (fun n ->
        let w = Workloads.populated_store n in
        let session = Workspace.session w in
        let text = ref "" in
        let save_us =
          Bench_util.time_us ~runs:3 (fun () -> text := Persist.save session)
        in
        let load_us =
          Bench_util.time_us ~runs:3 (fun () ->
              Persist.load Standard_schemas.odyssey !text)
        in
        [ string_of_int n;
          string_of_int (String.length !text / 1024);
          Printf.sprintf "%.1f" (save_us /. 1000.0);
          Printf.sprintf "%.1f" (load_us /. 1000.0) ])
      [ 100; 1000 ]
  in
  Bench_util.print_table
    [ "instances"; "file KiB"; "save ms"; "load ms" ]
    rows;

  Bench_util.section "session operation latency";
  let w2 = Workloads.populated_store 1000 in
  let s2 = Workspace.session w2 in
  Bench_util.run_bechamel ~name:"fig9"
    [
      Test.make ~name:"goal-based start + expand"
        (Staged.stage (fun () ->
             let n = Session.start_goal_based s2 E.performance in
             Session.expand s2 n));
      Test.make ~name:"browse a node over 1000 instances"
        (Staged.stage (fun () ->
             let n = Session.start_goal_based s2 E.netlist in
             Session.browse s2 n));
      Test.make ~name:"render the task window"
        (Staged.stage (fun () ->
             let n = Session.start_goal_based s2 E.performance in
             ignore (Session.expand s2 n);
             Session.render_task_window s2));
    ]
