(* The framework is methodology-independent: nothing in the schema,
   graph, store, history or engine knows about EDA.  This example
   defines a completely different methodology -- preparing a conference
   paper -- as a task schema with its own tools, runs dynamically
   defined flows over it, and gets history, versioning and consistency
   maintenance for free.

   Schema (a faithful miniature of Fig. 1's structure, different
   domain):

     draft        <- (editor, draft?)            -- the edit loop
     figures      <- (figure_generator, results)
     camera_ready <- (formatter, draft, figures)
     review       <- (reviewer, camera_ready)
*)

open Ddf

(* ---- the methodology ---------------------------------------------- *)

let schema =
  Schema.create "paper_prep"
    [
      Schema.tool "editor" [];
      Schema.tool "figure_generator" [];
      Schema.tool "formatter" [];
      Schema.tool "reviewer" [];
      Schema.entity "results" [];
      Schema.entity "draft"
        [ Schema.functional "editor"; Schema.data ~optional:true "draft" ];
      Schema.entity "figures"
        [ Schema.functional "figure_generator"; Schema.data "results" ];
      Schema.entity "camera_ready"
        [ Schema.functional "formatter"; Schema.data "draft";
          Schema.data "figures" ];
      Schema.entity "review"
        [ Schema.functional "reviewer"; Schema.data "camera_ready" ];
    ]

(* ---- the tools (plain text transforms over Blob payloads) ---------- *)

let blob kind text = Value.Blob { blob_kind = kind; text }

let text_tool key tool_entity goal f =
  {
    Encapsulation.key;
    tool_entity;
    goals = [ goal ];
    behavior =
      (fun ~tool ~goals:_ args ->
        let text role =
          snd (Value.as_blob (Encapsulation.required args role))
        in
        let text_opt role =
          Option.map (fun v -> snd (Value.as_blob v)) (Encapsulation.arg args role)
        in
        [ (goal, f ~tool ~text ~text_opt) ]);
    cost_us = (fun _ -> 50);
    batched = false;
  }

let registry () =
  let r = Encapsulation.create_registry () in
  List.iter (Encapsulation.register r)
    [
      text_tool "editor.append" "editor" "draft"
        (fun ~tool ~text:_ ~text_opt ->
          let session = match Value.as_tool tool with
            | Value.Builtin s -> s
            | _ -> Encapsulation.tool_errorf "expected a builtin editor"
          in
          let base = Option.value (text_opt "draft") ~default:"" in
          blob "draft" (base ^ session ^ "\n"));
      text_tool "figures.render" "figure_generator" "figures"
        (fun ~tool:_ ~text ~text_opt:_ ->
          blob "figures"
            (String.concat "\n"
               (List.map
                  (fun line -> "[figure] " ^ line)
                  (String.split_on_char '\n' (text "results")))));
      text_tool "formatter.join" "formatter" "camera_ready"
        (fun ~tool:_ ~text ~text_opt:_ ->
          blob "camera_ready"
            ("== CAMERA READY ==\n" ^ text "draft" ^ text "figures"));
      text_tool "reviewer.grumpy" "reviewer" "review"
        (fun ~tool:_ ~text ~text_opt:_ ->
          let n = String.length (text "camera_ready") in
          blob "review"
            (if n > 90 then "accept (thorough!)" else "reject: too short"));
    ];
  r

(* ---- a session over the custom methodology ------------------------- *)

let () =
  print_endline "# a non-EDA methodology over the same framework";
  let ctx = Engine.create_context ~user:"author" ~registry:(registry ()) schema in
  let session = Session.of_context ctx in

  (* catalog data and tools *)
  let results =
    Engine.install ctx ~entity:"results" ~label:"experiment results"
      (blob "results" "speedup 8x\ncrossover at 4 vectors")
  in
  let editor i =
    Engine.install ctx ~entity:"editor"
      ~label:(Printf.sprintf "editing session %d" i)
      (Value.Tool (Value.Builtin (Printf.sprintf "paragraph %d." i)))
  in
  let tool entity key =
    Engine.install ctx ~entity ~label:entity (Value.Tool (Value.Builtin key))
  in
  let figure_generator = tool "figure_generator" "fig"
  and formatter = tool "formatter" "fmt"
  and reviewer = tool "reviewer" "rev" in

  (* goal-based: build the whole flow from the review downward *)
  let review_node = Session.start_goal_based session "review" in
  ignore (Session.expand session review_node);
  let flow = Session.current_flow session in
  let node entity =
    List.find
      (fun (n : Task_graph.node) -> n.Task_graph.entity = entity)
      (Task_graph.nodes flow)
  in
  ignore (Session.expand session (node "camera_ready").Task_graph.nid);
  let flow = Session.current_flow session in
  let node entity =
    List.find
      (fun (n : Task_graph.node) -> n.Task_graph.entity = entity)
      (Task_graph.nodes flow)
  in
  ignore (Session.expand session (node "figures").Task_graph.nid);
  ignore
    (Session.expand ~include_optional:false session (node "draft").Task_graph.nid);
  print_string (Session.render_task_window session);

  (* select and run *)
  let flow = Session.current_flow session in
  let select entity iid =
    List.iter
      (fun (n : Task_graph.node) ->
        if n.Task_graph.entity = entity && Task_graph.out_edges flow n.Task_graph.nid = []
        then Session.select session n.Task_graph.nid [ iid ])
      (Task_graph.nodes flow)
  in
  select "results" results;
  select "editor" (editor 1);
  select "figure_generator" figure_generator;
  select "formatter" formatter;
  select "reviewer" reviewer;
  let review_iid = List.hd (Session.run session review_node) in
  (* a read after a write pins a fresh view *)
  let payload iid = Engine.decode (Store.snapshot ctx.Engine.store) iid in
  let derivation_of iid =
    History.Snapshot.derivation_of (History.snapshot ctx.Engine.history) iid
  in
  let _, verdict = Value.as_blob (payload review_iid) in
  Printf.printf "\nreview verdict: %s\n" verdict;

  (* versioning and consistency, inherited for free *)
  print_endline "\n# the edit loop gives versioning for free";
  let camera_iid =
    match derivation_of review_iid with
    | Some r -> List.assoc "camera_ready" r.History.inputs
    | None -> assert false
  in
  let draft_iid =
    match derivation_of camera_iid with
    | Some r -> List.assoc "draft" r.History.inputs
    | None -> assert false
  in
  (* revise the draft: a new version *)
  let g, out = Task_graph.create schema "draft" in
  let g, fresh = Task_graph.expand g out in
  let editor_node =
    List.find (fun n -> Task_graph.entity_of g n = "editor") fresh
  in
  let draft_node =
    List.find (fun n -> Task_graph.entity_of g n = "draft" && n <> out) fresh
  in
  let _ =
    Engine.execute ctx g
      ~bindings:[ (editor_node, editor 2); (draft_node, draft_iid) ]
  in
  let h = History.snapshot ctx.Engine.history in
  Printf.printf "draft versions: %d\n"
    (List.length (History.Snapshot.versions h draft_iid));
  (* the camera-ready copy is now out of date *)
  let stale = History.Snapshot.out_of_date h camera_iid in
  Printf.printf "camera-ready stale inputs: %d\n" (List.length stale);
  let report = Consistency.refresh ctx review_iid in
  Format.printf "refresh the review: %a@." Consistency.pp_report report;
  let _, verdict2 =
    Value.as_blob (payload report.Consistency.fresh_instance)
  in
  Printf.printf "new verdict: %s\n" verdict2
