(* hercules: a command-line front end to the dynamically-defined-flows
   workspace, in the spirit of the Hercules Task Manager (section 4).

   The store is in-memory, so each invocation hosts a complete scripted
   session: build a flow (from text or from a goal), bind it against a
   named circuit from the zoo, run it, and browse the resulting design
   history. *)

open Cmdliner
open Ddf
module E = Standard_schemas.E

let circuit_conv =
  let parse s =
    match List.assoc_opt s Eda.Circuits.all_named with
    | Some mk -> Ok (s, mk ())
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown circuit %S (try: %s)" s
             (String.concat ", " (List.map fst Eda.Circuits.all_named))))
  in
  let print ppf (name, _) = Fmt.string ppf name in
  Arg.conv (parse, print)

let circuit_arg =
  Arg.(
    value
    & opt circuit_conv ("c17", Eda.Circuits.c17 ())
    & info [ "c"; "circuit" ] ~docv:"NAME"
        ~doc:"Circuit from the zoo (c17, full_adder, adder4, ...).")

let blif_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "blif" ] ~docv:"FILE" ~doc:"Read the circuit from a BLIF file.")

let load_circuit (name, zoo) blif =
  match blif with
  | None -> (name, zoo)
  | Some path -> (
    match Eda.Blif.of_file path with
    | nl -> (nl.Eda.Netlist.name, nl)
    | exception Eda.Blif.Blif_error m ->
      Printf.eprintf "BLIF error: %s\n" m;
      exit 1)

let workspace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "w"; "workspace" ] ~docv:"FILE"
        ~doc:
          "Persistent workspace: loaded when the file exists, saved back \
           after the command.")

(* ------------------------------------------------------------------ *)
(* Observability flags (shared across commands)                        *)
(* ------------------------------------------------------------------ *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a structured trace of the command to $(docv).")

let trace_format_arg =
  let formats =
    [ ("text", Obs_sinks.Text); ("jsonl", Obs_sinks.Jsonl);
      ("chrome", Obs_sinks.Chrome) ]
  in
  Arg.(
    value
    & opt (enum formats) Obs_sinks.Chrome
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "Trace format: $(b,text) (human-readable), $(b,jsonl) (one JSON \
           event per line) or $(b,chrome) (chrome://tracing / Perfetto).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the engine metrics registry after the command.")

let obs_term =
  Term.(
    const (fun trace format metrics -> (trace, format, metrics))
    $ trace_arg $ trace_format_arg $ metrics_arg)

(* Run [f] with the requested sink installed; the trace file is
   finalized (and the Chrome JSON document written) on the way out,
   even when [f] raises.  [Obs.emit] serializes emission, so the
   server's threads share the sink as is. *)
let with_obs (trace, format, metrics) f =
  (match trace with
  | Some path -> (
    match Obs_sinks.to_file ~format path with
    | sink -> Obs.set_sink sink
    | exception Sys_error m ->
      Printf.eprintf "cannot open trace file: %s\n" m;
      exit 1)
  | None -> ());
  Fun.protect
    ~finally:(fun () ->
      (match trace with
      | Some path ->
        Obs.clear_sink ();
        Printf.printf "[trace written to %s]\n" path
      | None -> ());
      if metrics then Format.printf "%a" Metrics.pp Metrics.global)
    f

(* Run [f] inside a (possibly persistent) workspace. *)
let with_workspace ?user ws_file f =
  let w =
    match ws_file with
    | Some path when Sys.file_exists path -> (
      match Persist.load_file Standard_schemas.odyssey path with
      | _, _, session -> Workspace.of_session session
      | exception Persist.Persist_error m ->
        Printf.eprintf "cannot load workspace: %s\n" m;
        exit 1
      | exception Error.Ddf_error err ->
        Printf.eprintf "cannot load workspace: %s\n" (Error.message err);
        exit 1)
    | Some _ | None -> Workspace.create ?user ()
  in
  let result = f w in
  (match ws_file with
  | Some path ->
    Persist.save_file (Workspace.session w) path;
    Printf.printf "[workspace saved to %s]\n" path
  | None -> ());
  result

(* ------------------------------------------------------------------ *)
(* hercules export                                                     *)
(* ------------------------------------------------------------------ *)

let export_cmd =
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write BLIF here (default stdout).")
  in
  let run circuit blif out =
    let _, nl = load_circuit circuit blif in
    match out with
    | None -> print_string (Eda.Blif.to_string nl)
    | Some path ->
      Eda.Blif.to_file path nl;
      Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write a circuit as BLIF.")
    Term.(const run $ circuit_arg $ blif_arg $ out)

(* ------------------------------------------------------------------ *)
(* hercules schema                                                     *)
(* ------------------------------------------------------------------ *)

let schema_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text.")
  in
  let run dot =
    if dot then print_string (Schema.to_dot Standard_schemas.odyssey)
    else Format.printf "%a@." Schema.pp Standard_schemas.odyssey
  in
  Cmd.v
    (Cmd.info "schema" ~doc:"Print the odyssey task schema (Fig. 1 extended).")
    Term.(const run $ dot)

(* ------------------------------------------------------------------ *)
(* hercules flow                                                       *)
(* ------------------------------------------------------------------ *)

let flow_cmd =
  let text =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FLOW"
          ~doc:
            "Flow in round-trip text form, e.g. \
             'extracted_netlist#0(tool=extractor#1, layout=layout#2)'.")
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz.") in
  let flowmap =
    Arg.(value & flag & info [ "flowmap" ] ~doc:"Also print the bipartite view.")
  in
  let run text dot flowmap =
    match Sexp_form.of_string Standard_schemas.odyssey text with
    | exception Sexp_form.Parse_error m ->
      Printf.eprintf "parse error: %s\n" m;
      exit 1
    | exception Schema.Schema_error m ->
      Printf.eprintf "schema error: %s\n" m;
      exit 1
    | exception Task_graph.Graph_error m ->
      Printf.eprintf "illegal flow: %s\n" m;
      exit 1
    | g ->
      Task_graph.validate g;
      if dot then print_string (Task_graph.to_dot g)
      else print_string (Task_graph.to_ascii g);
      if flowmap then print_string (Bipartite.to_ascii (Bipartite.of_graph g));
      Printf.printf "valid flow: %d nodes, %d invocations, complete: %b\n"
        (Task_graph.size g)
        (List.length (Task_graph.invocations g))
        (Task_graph.complete g)
  in
  Cmd.v
    (Cmd.info "flow"
       ~doc:"Parse, validate and display a dynamically defined flow.")
    Term.(const run $ text $ dot $ flowmap)

(* ------------------------------------------------------------------ *)
(* hercules run                                                        *)
(* ------------------------------------------------------------------ *)

let goal_arg =
  Arg.(
    value
    & opt string E.performance_plot
    & info [ "g"; "goal" ] ~docv:"ENTITY"
        ~doc:"Goal entity (goal-based approach).")

let run_cmd =
  let vectors =
    Arg.(
      value & opt int 16
      & info [ "vectors" ] ~doc:"Random stimulus vectors to simulate.")
  in
  let cell_arg =
    Arg.(
      value & opt (some string) None
      & info [ "cell" ] ~docv:"NAME"
          ~doc:"Tag the circuit as this process cell's data.")
  in
  let vcd_arg =
    Arg.(
      value & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE"
          ~doc:"Also dump the simulation waveform as VCD (combinational \
                circuits only).")
  in
  let run circuit blif goal vectors ws_file cell vcd obs =
    let cname, circuit = load_circuit circuit blif in
    let user = Sys.getenv_opt "USER" |> Option.value ~default:"designer" in
    with_obs obs @@ fun () ->
    with_workspace ~user ws_file @@ fun w ->
    let ctx = Workspace.ctx w in
    let session = Workspace.session w in
    let keywords =
      match cell with Some c -> [ Process.cell_keyword c ] | None -> []
    in
    let nl_iid = Workspace.install_netlist w ~label:cname ~keywords circuit in
    let stim_iid =
      Workspace.install_stimuli w
        (if List.length circuit.Eda.Netlist.primary_inputs <= 8 then
           Eda.Stimuli.exhaustive circuit.Eda.Netlist.primary_inputs
         else Eda.Stimuli.for_netlist ~n:vectors circuit (Eda.Rng.create 1))
    in
    (* goal-based construction, expanding composites as needed *)
    let root = Session.start_goal_based session goal in
    let rec expand_all () =
      let flow = Session.current_flow session in
      let unexpanded =
        List.filter
          (fun (n : Task_graph.node) ->
            Task_graph.out_edges flow n.Task_graph.nid = []
            &&
            match Schema.construction_rule (Workspace.schema w) n.Task_graph.entity with
            | Schema.Constructed _ ->
              (* expand tasks and composites, but leave editable
                 self-referential entities as selectable leaves *)
              not
                (Schema.is_subtype (Workspace.schema w) ~sub:n.Task_graph.entity
                   ~super:E.netlist)
              && n.Task_graph.entity <> E.device_models
            | Schema.Abstract _ | Schema.Source -> false)
          (Task_graph.nodes flow)
      in
      match unexpanded with
      | [] -> ()
      | n :: _ ->
        ignore (Session.expand ~include_optional:false session n.Task_graph.nid);
        expand_all ()
    in
    expand_all ();
    let flow = Session.current_flow session in
    (* bind leaves *)
    List.iter
      (fun nid ->
        let entity = Task_graph.entity_of flow nid in
        let schema = Workspace.schema w in
        if Schema.is_tool schema entity then
          Session.select session nid [ Workspace.tool w entity ]
        else if Schema.is_subtype schema ~sub:entity ~super:E.netlist then
          Session.select session nid [ nl_iid ]
        else if entity = E.stimuli then Session.select session nid [ stim_iid ]
        else if entity = E.device_models then
          Session.select session nid [ Workspace.default_device_models w ]
        else if Schema.is_subtype schema ~sub:entity ~super:E.layout then begin
          let lay = Workspace.install_layout w (Eda.Layout.place circuit) in
          Session.select session nid [ lay ]
        end)
      (Task_graph.leaves flow);
    print_string (Session.render_task_window session);
    match Session.run session root with
    | [] -> print_endline "nothing to run"
    | iid :: _ ->
      Format.printf "@.result #%d: %a@." iid Value.pp (Workspace.payload w iid);
      (match Workspace.payload w iid with
      | Value.Plot p -> print_string p.Eda.Plot.rendering
      | _ -> ());
      (match vcd with
      | Some path when not (Eda.Netlist.is_sequential circuit) ->
        let stim_payload =
          Value.as_stimuli (Workspace.payload w stim_iid)
        in
        let r = Eda.Sim_event.run ~settle_ps:2000 circuit stim_payload in
        Eda.Vcd.to_file path r.Eda.Sim_event.waveform
          (circuit.Eda.Netlist.primary_inputs
          @ circuit.Eda.Netlist.primary_outputs);
        Printf.printf "waveform written to %s\n" path
      | Some _ ->
        print_endline "(--vcd skipped: sequential circuit)"
      | None -> ());
      print_endline "\nderivation history:";
      let v = Engine.pin ctx in
      let g, _, _ =
        History.Snapshot.trace v.Engine.v_history v.Engine.v_store
          (Workspace.schema w) iid
      in
      print_string (Task_graph.to_ascii g)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Build a goal-based flow for a circuit, run it, show history.")
    Term.(
      const run $ circuit_arg $ blif_arg $ goal_arg $ vectors
      $ workspace_arg $ cell_arg $ vcd_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* hercules browse                                                     *)
(* ------------------------------------------------------------------ *)

let browse_cmd =
  let user =
    Arg.(value & opt (some string) None & info [ "user" ] ~doc:"User limit.")
  in
  let from_ =
    Arg.(value & opt (some int) None & info [ "from" ] ~doc:"Date limit (from).")
  in
  let to_ =
    Arg.(value & opt (some int) None & info [ "to" ] ~doc:"Date limit (to).")
  in
  let keyword =
    Arg.(value & opt_all string [] & info [ "keyword" ] ~doc:"Keyword filter.")
  in
  let text =
    Arg.(value & opt (some string) None & info [ "text" ] ~doc:"Text search.")
  in
  let n =
    Arg.(value & opt int 30 & info [ "n" ] ~doc:"Sample instances to create.")
  in
  let run user from_ to_ keyword text n =
    let w = Workspace.create () in
    let ctx = Workspace.ctx w in
    let users = [| "jbb"; "director"; "sutton" |] in
    let kws = [| "analog"; "cmos"; "adder" |] in
    for i = 1 to n do
      ignore
        (Engine.install ctx ~entity:E.edited_netlist
           ~label:(Printf.sprintf "Design %d" i)
           ~user:users.(i mod 3)
           ~keywords:[ kws.(i mod 3) ]
           (Value.Netlist (Eda.Circuits.full_adder ())))
    done;
    let filter =
      { Store.f_entities = None; f_user = user; f_from = from_; f_to = to_;
        f_keywords = keyword; f_text = text }
    in
    let snap = Store.snapshot (Workspace.store w) in
    List.iter
      (fun iid ->
        let m = Store.Snapshot.meta_of snap iid in
        Printf.printf "#%-4d %-20s %-10s @%-4d [%s]\n" iid m.Store.label
          m.Store.user m.Store.created_at
          (String.concat "," m.Store.keywords))
      (Store.Snapshot.browse snap filter)
  in
  Cmd.v
    (Cmd.info "browse"
       ~doc:"The Fig. 9 instance browser over a sample store.")
    Term.(const run $ user $ from_ $ to_ $ keyword $ text $ n)

(* ------------------------------------------------------------------ *)
(* hercules history                                                    *)
(* ------------------------------------------------------------------ *)

let history_cmd =
  let instance =
    Arg.(
      value & opt (some int) None
      & info [ "i"; "instance" ] ~docv:"IID"
          ~doc:"Show the derivation trace of this instance.")
  in
  let forward =
    Arg.(value & flag & info [ "uses" ] ~doc:"Forward chaining instead.")
  in
  let run ws_file instance forward =
    match ws_file with
    | None ->
      Printf.eprintf "history needs --workspace FILE\n";
      exit 2
    | Some _ ->
      with_workspace ws_file @@ fun w ->
      let { Engine.v_store = store; v_history = history } =
        Engine.pin (Workspace.ctx w)
      in
      match instance with
      | None ->
        (* list everything with a derivation state *)
        List.iter
          (fun iid ->
            let m = Store.Snapshot.meta_of store iid in
            let derived = History.Snapshot.derivation_of history iid <> None in
            Printf.printf "#%-4d %-22s %-40s %s\n" iid
              (Store.Snapshot.entity_of store iid)
              m.Store.label
              (if derived then "(derived)" else "(source)"))
          (Store.Snapshot.all_instances store)
      | Some iid when forward ->
        let derived = History.Snapshot.derived_instances history iid in
        Printf.printf "instances derived from #%d: %s\n" iid
          (String.concat ", " (List.map (fun i -> "#" ^ string_of_int i) derived))
      | Some iid ->
        print_string
          (History.Snapshot.trace_text history store (Workspace.schema w) iid)
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:"Browse a persistent workspace's design history (Fig. 10).")
    Term.(const run $ workspace_arg $ instance $ forward)

(* ------------------------------------------------------------------ *)
(* hercules query                                                      *)
(* ------------------------------------------------------------------ *)

let query_cmd =
  let template =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TEMPLATE"
          ~doc:
            "Flow template in text form; the task graph itself is the \
             query (section 4.2).")
  in
  let binds =
    Arg.(
      value & opt_all (pair ~sep:'=' int int) []
      & info [ "b"; "bind" ] ~docv:"NODE=IID"
          ~doc:"Pin a template node to an instance.")
  in
  let run ws_file template binds =
    match ws_file with
    | None ->
      Printf.eprintf "query needs --workspace FILE\n";
      exit 2
    | Some _ ->
      with_workspace ws_file @@ fun w ->
      let g =
        try Sexp_form.of_string (Workspace.schema w) template
        with
        | Sexp_form.Parse_error m | Schema.Schema_error m
        | Task_graph.Graph_error m ->
          Printf.eprintf "bad template: %s\n" m;
          exit 1
      in
      let v = Engine.pin (Workspace.ctx w) in
      let results =
        History.Snapshot.query_template v.Engine.v_history v.Engine.v_store g
          ~bound:binds
      in
      Printf.printf "%d binding(s):\n" (List.length results);
      List.iter
        (fun binding ->
          print_endline
            (String.concat "  "
               (List.map
                  (fun (nid, iid) ->
                    Printf.sprintf "%s#%d=%d"
                      (Task_graph.entity_of g nid) nid iid)
                  binding)))
        results
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Query the design history with a flow template (section 4.2).")
    Term.(const run $ workspace_arg $ template $ binds)

(* ------------------------------------------------------------------ *)
(* hercules process                                                    *)
(* ------------------------------------------------------------------ *)

let process_cmd =
  let definition =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"PROCESS.sexp"
          ~doc:"Design-process definition, e.g. '(process p (cell top \
                (requires synthesized_layout)))'.")
  in
  let worklist =
    Arg.(
      value & opt (some string) None
      & info [ "worklist" ] ~docv:"DESIGNER"
          ~doc:"Show this designer's worklist instead of the report.")
  in
  let run ws_file definition worklist =
    match ws_file with
    | None ->
      Printf.eprintf "process needs --workspace FILE\n";
      exit 2
    | Some _ ->
      with_workspace ws_file @@ fun w ->
      let ctx = Workspace.ctx w in
      let process =
        try Process_file.of_file definition
        with Process_file.Process_file_error m ->
          Printf.eprintf "bad process definition: %s\n" m;
          exit 1
      in
      (match worklist with
      | Some designer ->
        Printf.printf "%s could work on: %s\n" designer
          (String.concat ", "
             (Process.worklist ctx process ~designer))
      | None ->
        Format.printf "%a@." Process.pp_report (Process.report ctx process);
        Printf.printf "completion: %.0f%%\n"
          (100.0 *. Process.completion ctx process))
  in
  Cmd.v
    (Cmd.info "process"
       ~doc:"Track a design process (Minerva-style) over a workspace.")
    Term.(const run $ workspace_arg $ definition $ worklist)

(* ------------------------------------------------------------------ *)
(* hercules annotate                                                   *)
(* ------------------------------------------------------------------ *)

let annotate_cmd =
  let instance =
    Arg.(
      required
      & opt (some int) None
      & info [ "i"; "instance" ] ~docv:"IID" ~doc:"Instance to annotate.")
  in
  let label =
    Arg.(value & opt (some string) None & info [ "label" ] ~doc:"New name.")
  in
  let comment =
    Arg.(value & opt (some string) None & info [ "comment" ] ~doc:"New comment.")
  in
  let keyword =
    Arg.(
      value & opt_all string []
      & info [ "keyword" ] ~doc:"Replacement keywords (repeatable).")
  in
  let run ws_file instance label comment keyword =
    match ws_file with
    | None ->
      Printf.eprintf "annotate needs --workspace FILE\n";
      exit 2
    | Some _ ->
      with_workspace ws_file @@ fun w ->
      let keywords = if keyword = [] then None else Some keyword in
      (try
         Store.annotate (Workspace.store w) instance ?label ?comment ?keywords ()
       with Ddf.Error.Ddf_error err ->
         Printf.eprintf "%s\n" (Error.message err);
         exit 1);
      let inst =
        Store.Snapshot.find (Store.snapshot (Workspace.store w)) instance
      in
      let m = inst.Store.meta in
      Printf.printf "#%d %s %S [%s]\n" instance inst.Store.entity m.Store.label
        (String.concat "," m.Store.keywords)
  in
  Cmd.v
    (Cmd.info "annotate"
       ~doc:"Name and document a design object (Fig. 9's annotation).")
    Term.(const run $ workspace_arg $ instance $ label $ comment $ keyword)

(* ------------------------------------------------------------------ *)
(* hercules recall                                                     *)
(* ------------------------------------------------------------------ *)

let recall_cmd =
  let instance =
    Arg.(
      required
      & opt (some int) None
      & info [ "i"; "instance" ] ~docv:"IID"
          ~doc:"Recall this instance's task into the task window.")
  in
  let rerun =
    Arg.(value & flag & info [ "rerun" ] ~doc:"Re-execute the recalled task.")
  in
  let run ws_file instance rerun obs =
    match ws_file with
    | None ->
      Printf.eprintf "recall needs --workspace FILE\n";
      exit 2
    | Some _ ->
      with_obs obs @@ fun () ->
      with_workspace ws_file @@ fun w ->
      let session = Workspace.session w in
      let root = Session.recall session instance in
      print_string (Session.render_task_window session);
      if rerun then
        match Session.run session root with
        | iid :: _ ->
          Format.printf "re-ran -> #%d: %a@." iid Value.pp
            (Workspace.payload w iid)
        | [] -> print_endline "nothing ran"
  in
  Cmd.v
    (Cmd.info "recall"
       ~doc:"Recall a previously executed task (section 4.1).")
    Term.(const run $ workspace_arg $ instance $ rerun $ obs_term)

(* ------------------------------------------------------------------ *)
(* hercules serve                                                      *)
(* ------------------------------------------------------------------ *)

(* First run against an empty database: install the standard tool
   catalog and the default models/option sets, journaled like any
   other mutation, so remote sessions find the same environment
   [Workspace.create] builds locally. *)
let seed_database ctx =
  List.iter
    (fun entity -> ignore (Engine.install_tool ctx entity))
    Workspace.catalog_tool_entities;
  ignore
    (Engine.install ctx ~entity:E.device_models ~label:"generic 800nm"
       (Value.Device_models Eda.Device_model.default));
  ignore
    (Engine.install ctx ~entity:E.sim_options ~label:"default sim options"
       (Value.Sim_options Value.default_sim_options));
  ignore
    (Engine.install ctx ~entity:E.placement_options ~label:"default placement"
       (Value.Placement_options Value.default_placement_options))

let db_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "db" ] ~docv:"DIR"
        ~doc:"Database directory (snapshot + write-ahead journal); created \
              when missing.")

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket to listen on (default $(b,DIR/hercules.sock)).")
  in
  let compact_every =
    Arg.(
      value & opt int 512
      & info [ "compact-every" ] ~docv:"N"
          ~doc:
            "Seal the journal into cement every $(docv) entries.  A seal \
             also writes a checkpoint once the entries sealed since the \
             last one are as many as it covers, so checkpoints land at \
             $(docv) times a power of two.")
  in
  let request_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "request-timeout" ] ~docv:"SECONDS"
          ~doc:"Reject mutations that wait longer than this in the write queue.")
  in
  let max_clients =
    Arg.(
      value & opt int 64
      & info [ "max-clients" ] ~doc:"Concurrent connection limit.")
  in
  let max_queue =
    Arg.(
      value & opt int 256
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Write-queue admission bound: a mutation arriving when $(docv) \
             jobs already wait is shed with a typed overloaded error (and a \
             retry-after hint) instead of queueing unbounded latency.")
  in
  let read_domains =
    Arg.(
      value & opt int 0
      & info [ "read-domains" ] ~docv:"N"
          ~doc:
            "Size of the domain-pool read executor: with $(docv) > 0, pure \
             reads are evaluated on $(docv) worker domains, each pinning \
             the latest published store+history snapshot, so read \
             throughput scales across cores while the writer keeps \
             committing; 0 (the default) evaluates reads inline on the \
             connection threads — equally lock-free, just unpooled.")
  in
  let default_deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "default-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Give every request from a client that sent no deadline header \
             an implicit budget of $(docv) seconds; requests whose budget \
             expires before execution are shed, never run.")
  in
  let slow_request =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-request" ] ~docv:"SECONDS"
          ~doc:
            "Slow-request log: report any request served slower than \
             $(docv) seconds on stderr — operation, user, duration and \
             (when tracing) its trace token — and count it in \
             $(b,server.slow_requests).")
  in
  let replay_only =
    Arg.(
      value & flag
      & info [ "replay-only" ]
          ~doc:"Open the database, replay the journal, print a summary and \
                exit without serving.")
  in
  let follow =
    Arg.(
      value
      & opt (some string) None
      & info [ "follow" ] ~docv:"PRIMARY_SOCKET"
          ~doc:
            "Run as a read-only replication follower of the primary \
             listening on $(docv): subscribe to its journal stream, apply \
             every entry locally (crash-safe, promotable) and serve reads; \
             writes are rejected with a pointer to the primary.")
  in
  let sync_mode =
    Arg.(
      value
      & opt
          (enum
             [ ("always", Journal.Always); ("group", Journal.Group);
               ("none", Journal.Never) ])
          Journal.Group
      & info [ "sync-mode" ] ~docv:"MODE"
          ~doc:
            "Journal durability: $(b,always) fsyncs inside every append; \
             $(b,group) (the default) fsyncs once per write batch before \
             acknowledging any request in it — group commit, so concurrent \
             writers share one disk flush; $(b,none) never fsyncs (for \
             replay-only followers and benchmarks).")
  in
  let run db socket follow sync_mode compact_every request_timeout
      max_clients max_queue read_domains default_deadline slow_request
      replay_only obs =
    let socket =
      match socket with Some s -> s | None -> Filename.concat db "hercules.sock"
    in
    if replay_only then begin
      let j = Journal.open_ ~compact_every ~dir:db Standard_schemas.odyssey in
      let ctx = Journal.context j in
      let v = Engine.pin ctx in
      Printf.printf
        "%s: %d instance(s), %d history record(s), clock %d, seq %d%s\n" db
        (Store.Snapshot.instance_count v.Engine.v_store)
        (History.Snapshot.size v.Engine.v_history)
        ctx.Engine.clock (Journal.seq j)
        (let torn = Journal.truncated_on_open j in
         if torn > 0 then Printf.sprintf " (%d byte(s) of torn tail dropped)" torn
         else "");
      Journal.close j
    end
    else begin
      with_obs obs @@ fun () ->
      (match follow with
      | None -> Printf.printf "hercules: serving %s on %s\n%!" db socket
      | Some primary ->
        Printf.printf "hercules: serving %s on %s (following %s)\n%!" db
          socket primary);
      match
        Server.run ~seed:seed_database ?follow ~sync_mode
          ~max_clients ~request_timeout ~max_queue ~read_domains
          ?default_deadline
          ?slow_log:slow_request ~compact_every ~db ~socket
          Standard_schemas.odyssey
      with
      | () -> print_endline "hercules: shut down"
      | exception Server.Server_error m ->
        Printf.eprintf "server error: %s\n" m;
        exit 1
      | exception Error.Ddf_error err ->
        Printf.eprintf "journal error: %s\n" (Error.to_string err);
        exit 1
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the design-server daemon: a journaled store shared by \
          concurrent $(b,hercules remote) clients — as the primary, or as a \
          read-scaling replication follower ($(b,--follow)).")
    Term.(
      const run $ db_arg $ socket $ follow $ sync_mode $ compact_every
      $ request_timeout $ max_clients $ max_queue $ read_domains
      $ default_deadline
      $ slow_request $ replay_only $ obs_term)

(* ------------------------------------------------------------------ *)
(* hercules remote                                                     *)
(* ------------------------------------------------------------------ *)

let remote_socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"The server's Unix-domain socket.")

let remote_user_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "user" ] ~docv:"NAME"
        ~doc:"Identity stamped on instances this session creates (default \
              \\$USER).")

(* Remote verbs ride out a daemon restart or failover: a few redials
   with backoff, and a per-request timeout so a wedged server fails
   the verb instead of hanging it. *)
let with_remote socket user f =
  let user =
    match user with
    | Some u -> u
    | None -> Sys.getenv_opt "USER" |> Option.value ~default:"anonymous"
  in
  match Client.with_client ~user ~retries:4 ~timeout:30.0 ~socket f with
  | v -> v
  | exception Error.Ddf_error err ->
    Printf.eprintf "error: %s\n" (Error.to_string err);
    exit 1

let no_filter =
  { Store.f_entities = None; f_user = None; f_from = None; f_to = None;
    f_keywords = []; f_text = None }

(* First store instance of an entity — how remote sessions reach the
   seeded tool catalog and default option sets. *)
let first_instance c entity =
  match Client.browse c { no_filter with Store.f_entities = Some [ entity ] } with
  | row :: _ -> row.Wire.row_iid
  | [] ->
    Printf.eprintf "no %s in the server catalog\n" entity;
    exit 1

let remote_ping_cmd =
  let run socket user =
    with_remote socket user @@ fun c ->
    let t0 = Unix.gettimeofday () in
    Client.ping c;
    Printf.printf "pong (%.2f ms)\n" ((Unix.gettimeofday () -. t0) *. 1e3)
  in
  Cmd.v
    (Cmd.info "ping" ~doc:"Round-trip to the server.")
    Term.(const run $ remote_socket_arg $ remote_user_arg)

let remote_stat_cmd =
  let run socket user =
    with_remote socket user @@ fun c ->
    let s = Client.stat c in
    Printf.printf "role         %s\nseq          %d\n" s.Wire.st_role
      s.Wire.st_seq;
    Printf.printf "clock        %d\ninstances    %d\nrecords      %d\n"
      s.Wire.st_clock s.Wire.st_instances s.Wire.st_records;
    Printf.printf "store tick   %d\nhistory tick %d\nuptime       %.1f s\n"
      s.Wire.st_store_tick s.Wire.st_history_tick s.Wire.st_uptime_s
  in
  Cmd.v
    (Cmd.info "stat" ~doc:"Server store/history/clock statistics.")
    Term.(const run $ remote_socket_arg $ remote_user_arg)

let remote_lag_cmd =
  let run socket user =
    with_remote socket user @@ fun c ->
    let primary_seq, rows = Client.lag c in
    Printf.printf "journal seq %d, %d follower(s)\n" primary_seq
      (List.length rows);
    List.iter
      (fun r ->
        Printf.printf "%-24s acked %-8d sent %-8d lag %d\n" r.Wire.lag_follower
          r.Wire.lag_acked r.Wire.lag_sent
          (primary_seq - r.Wire.lag_acked))
      rows
  in
  Cmd.v
    (Cmd.info "lag"
       ~doc:"Replication lag: the journal seqno and each follower's \
             acked/sent watermarks.")
    Term.(const run $ remote_socket_arg $ remote_user_arg)

let remote_compact_cmd =
  let run socket user =
    with_remote socket user @@ fun c ->
    Client.compact c;
    let s = Client.stat c in
    Printf.printf "compacted at seq %d\n" s.Wire.st_seq
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Fold the server's journal into a fresh snapshot now.")
    Term.(const run $ remote_socket_arg $ remote_user_arg)

let remote_export_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the snapshot here (atomically, via $(docv).tmp).")
  in
  let run socket user out =
    with_remote socket user @@ fun c ->
    let seq, bytes = Client.snapshot_export c ~out in
    Printf.printf "exported snapshot at seq %d (%d bytes) to %s\n" seq bytes
      out
  in
  Cmd.v
    (Cmd.info "snapshot-export"
       ~doc:"Compact the server and stream its snapshot to a local file in \
             bounded chunks — a consistent online backup that \
             never holds the state in memory on either side.")
    Term.(const run $ remote_socket_arg $ remote_user_arg $ out)

let remote_catalog_cmd =
  let which =
    Arg.(
      value
      & pos 0
          (enum
             [ ("entities", Wire.Entities); ("tools", Wire.Tools);
               ("flows", Wire.Flows) ])
          Wire.Entities
      & info [] ~docv:"WHICH" ~doc:"entities, tools or flows.")
  in
  let run socket user which =
    with_remote socket user @@ fun c ->
    List.iter print_endline (Client.catalog c which)
  in
  Cmd.v
    (Cmd.info "catalog" ~doc:"List the entity, tool or flow catalog.")
    Term.(const run $ remote_socket_arg $ remote_user_arg $ which)

let remote_browse_cmd =
  let entity =
    Arg.(
      value & opt_all string []
      & info [ "entity" ] ~doc:"Entity filter (repeatable).")
  in
  let by_user =
    Arg.(value & opt (some string) None & info [ "by" ] ~doc:"User limit.")
  in
  let keyword =
    Arg.(value & opt_all string [] & info [ "keyword" ] ~doc:"Keyword filter.")
  in
  let text =
    Arg.(value & opt (some string) None & info [ "text" ] ~doc:"Text search.")
  in
  let run socket user entity by_user keyword text =
    with_remote socket user @@ fun c ->
    let filter =
      { no_filter with
        Store.f_entities = (if entity = [] then None else Some entity);
        f_user = by_user; f_keywords = keyword; f_text = text }
    in
    List.iter
      (fun row ->
        let m = row.Wire.row_meta in
        Printf.printf "#%-4d %-22s %-20s %-10s @%-4d [%s]\n" row.Wire.row_iid
          row.Wire.row_entity m.Store.label m.Store.user m.Store.created_at
          (String.concat "," m.Store.keywords))
      (Client.browse c filter)
  in
  Cmd.v
    (Cmd.info "browse" ~doc:"Browse the server's store (Fig. 9, remotely).")
    Term.(
      const run $ remote_socket_arg $ remote_user_arg $ entity $ by_user
      $ keyword $ text)

let remote_demo_cmd =
  let run socket user =
    with_remote socket user @@ fun c ->
    let nl = Eda.Circuits.c17 () in
    let nl_iid =
      Client.install c ~entity:E.edited_netlist ~label:"c17"
        (Codec.value_to_sexp (Value.Netlist nl))
    in
    let stim_iid =
      Client.install c ~entity:E.stimuli ~label:"c17 stimuli"
        (Codec.value_to_sexp
           (Value.Stimuli (Eda.Stimuli.exhaustive nl.Eda.Netlist.primary_inputs)))
    in
    let root = Client.start_goal c E.performance in
    let fresh = Client.expand c root in
    (match List.find_opt (fun (_, e) -> e = E.circuit) fresh with
    | Some (nid, _) -> ignore (Client.expand c nid)
    | None -> ());
    let leaves = Client.leaves c in
    let node entity =
      match List.find_opt (fun (_, e) -> e = entity) leaves with
      | Some (nid, _) -> nid
      | None ->
        Printf.eprintf "no %s leaf in the task window\n" entity;
        exit 1
    in
    Client.select c (node E.simulator) [ first_instance c E.simulator ];
    Client.select c (node E.netlist) [ nl_iid ];
    Client.select c (node E.stimuli) [ stim_iid ];
    Client.select c (node E.device_models) [ first_instance c E.device_models ];
    print_string (Client.render c);
    let results = Client.run c root in
    List.iter (fun iid -> Printf.printf "-> #%d\n" iid) results;
    match results with
    | iid :: _ -> print_string (Client.trace c iid)
    | [] -> ()
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Run the section 4.1 walkthrough against a design server.")
    Term.(const run $ remote_socket_arg $ remote_user_arg)

let remote_run_cmd =
  let vectors =
    Arg.(
      value & opt int 16
      & info [ "vectors" ] ~doc:"Random stimulus vectors to simulate.")
  in
  let run socket user circuit blif goal vectors obs =
    let cname, circuit = load_circuit circuit blif in
    (* one root span for the whole command, so every client call — and
       through the frame headers every server/follower span they cause
       — lands in a single distributed trace *)
    with_obs obs @@ fun () ->
    Obs.with_span ~cat:"cli"
      ~attrs:[ ("circuit", Obs.Str cname) ]
      "cli.remote_run"
    @@ fun () ->
    with_remote socket user @@ fun c ->
    let schema = Standard_schemas.odyssey in
    let nl_iid =
      Client.install c ~entity:E.edited_netlist ~label:cname
        (Codec.value_to_sexp (Value.Netlist circuit))
    in
    let stim =
      if List.length circuit.Eda.Netlist.primary_inputs <= 8 then
        Eda.Stimuli.exhaustive circuit.Eda.Netlist.primary_inputs
      else Eda.Stimuli.for_netlist ~n:vectors circuit (Eda.Rng.create 1)
    in
    let stim_iid =
      Client.install c ~entity:E.stimuli ~label:(cname ^ " stimuli")
        (Codec.value_to_sexp (Value.Stimuli stim))
    in
    let root = Client.start_goal c goal in
    (* Expand every constructed leaf; editable netlists and device
       models stay selectable, as in the local goal-based run. *)
    let expandable entity =
      match Schema.construction_rule schema entity with
      | Schema.Constructed _ ->
        (not (Schema.is_subtype schema ~sub:entity ~super:E.netlist))
        && entity <> E.device_models
      | Schema.Abstract _ | Schema.Source -> false
    in
    let rec expand_all () =
      match List.find_opt (fun (_, e) -> expandable e) (Client.leaves c) with
      | Some (nid, _) ->
        ignore (Client.expand c nid);
        expand_all ()
      | None -> ()
    in
    expand_all ();
    List.iter
      (fun (nid, entity) ->
        if Schema.is_tool schema entity then
          Client.select c nid [ first_instance c entity ]
        else if Schema.is_subtype schema ~sub:entity ~super:E.netlist then
          Client.select c nid [ nl_iid ]
        else if entity = E.stimuli then Client.select c nid [ stim_iid ]
        else if
          entity = E.device_models || entity = E.sim_options
          || entity = E.placement_options
        then Client.select c nid [ first_instance c entity ]
        else if Schema.is_subtype schema ~sub:entity ~super:E.layout then
          Client.select c nid
            [ Client.install c ~entity:E.edited_layout
                ~label:(cname ^ " placed")
                (Codec.value_to_sexp (Value.Layout (Eda.Layout.place circuit)))
            ])
      (Client.leaves c);
    print_string (Client.render c);
    match Client.run c root with
    | [] -> print_endline "nothing to run"
    | iid :: _ as results ->
      List.iter (fun iid -> Printf.printf "-> #%d\n" iid) results;
      print_endline "\nderivation history:";
      print_string (Client.trace c iid)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Build and run a goal-based flow on the design server.")
    Term.(
      const run $ remote_socket_arg $ remote_user_arg $ circuit_arg $ blif_arg
      $ goal_arg $ vectors $ obs_term)

let remote_iid_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "i"; "instance" ] ~docv:"IID" ~doc:"Instance id.")

let remote_trace_cmd =
  let run socket user iid =
    with_remote socket user @@ fun c -> print_string (Client.trace c iid)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Show an instance's derivation trace.")
    Term.(const run $ remote_socket_arg $ remote_user_arg $ remote_iid_arg)

let remote_refresh_cmd =
  let run socket user iid =
    with_remote socket user @@ fun c ->
    let fresh, reran, reused = Client.refresh c iid in
    Printf.printf "fresh #%d (%d task(s) re-run, %d reused)\n" fresh reran
      reused
  in
  Cmd.v
    (Cmd.info "refresh"
       ~doc:"Bring an instance up to date (consistency maintenance).")
    Term.(const run $ remote_socket_arg $ remote_user_arg $ remote_iid_arg)

let remote_edit_cmd =
  let rename =
    Arg.(
      required
      & opt (some string) None
      & info [ "rename" ] ~docv:"NAME"
          ~doc:"Rename the netlist to $(docv) — the smallest scripted edit.")
  in
  let run socket user iid rename =
    with_remote socket user @@ fun c ->
    let es =
      Client.install c ~entity:E.netlist_editor ~label:("edit " ^ rename)
        (Codec.value_to_sexp
           (Value.Tool
              (Value.Scripted_netlist_editor
                 (Eda.Edit_script.create ~name:rename
                    [ Eda.Edit_script.Rename rename ]))))
    in
    let root = Client.start_goal c E.edited_netlist in
    let fresh = Client.expand c root in
    let node entity =
      match List.find_opt (fun (_, e) -> e = entity) fresh with
      | Some (nid, _) -> nid
      | None ->
        Printf.eprintf "no %s leaf in the edit flow\n" entity;
        exit 1
    in
    Client.select c (node E.netlist_editor) [ es ];
    Client.select c (node E.netlist) [ iid ];
    match Client.run c root with
    | out :: _ -> Printf.printf "-> #%d\n" out
    | [] -> print_endline "nothing produced"
  in
  Cmd.v
    (Cmd.info "edit"
       ~doc:
         "Derive a new version of a netlist instance through a scripted \
          editing session (the Fig. 11 versioning walkthrough, remotely).  \
          Two workspaces editing the same version and then syncing get \
          both results as alternatives plus a surfaced conflict.")
    Term.(
      const run $ remote_socket_arg $ remote_user_arg $ remote_iid_arg
      $ rename)

let remote_shutdown_cmd =
  let run socket user =
    with_remote socket user @@ fun c ->
    Client.shutdown c;
    print_endline "server shutting down"
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Ask the server to shut down gracefully.")
    Term.(const run $ remote_socket_arg $ remote_user_arg)

let remote_batch_cmd =
  let run socket user =
    (* One request s-expression per non-empty stdin line; the whole
       list travels as a single pipelined frame and the responses come
       back positionally, one line each. *)
    let reqs = ref [] in
    (try
       while true do
         let line = String.trim (input_line stdin) in
         if line <> "" then
           match Wire.request_of_sexp (Sexp.of_string line) with
           | req -> reqs := req :: !reqs
           | exception (Sexp.Sexp_error m | Wire.Wire_error m) ->
             Printf.eprintf "bad request %S: %s\n" line m;
             exit 1
       done
     with End_of_file -> ());
    let reqs = List.rev !reqs in
    if reqs = [] then begin
      Printf.eprintf "no requests on stdin\n";
      exit 1
    end;
    with_remote socket user @@ fun c ->
    let resps = Client.batch c reqs in
    List.iter
      (fun r -> print_endline (Sexp.to_string (Wire.response_to_sexp r)))
      resps;
    if List.exists (function Wire.Error _ -> true | _ -> false) resps then
      exit 1
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Pipeline many requests in one round trip: read request \
          s-expressions from stdin (one per line), send them as a single \
          $(b,batch) frame, and print the responses in order.  Exits \
          non-zero when any response is an error.")
    Term.(const run $ remote_socket_arg $ remote_user_arg)

let remote_metrics_cmd =
  let prometheus =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "Emit Prometheus text exposition (counters as $(b,_total), \
             histograms as summaries with p50/p90/p99 quantiles) instead \
             of the human-readable table.")
  in
  let run socket user prometheus =
    with_remote socket user @@ fun c ->
    let ms = Client.metrics c in
    if prometheus then print_string (Metrics.prometheus_of_metrics ms)
    else Format.printf "%a" Metrics.pp_metrics ms
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Fetch the server's metrics registry: counters, gauges and \
          latency histograms with p50/p90/p99 quantiles.")
    Term.(const run $ remote_socket_arg $ remote_user_arg $ prometheus)

let remote_digest_cmd =
  let run socket user =
    with_remote socket user @@ fun c ->
    let wsid, base, seq, fp, cursors, _entries = Client.sync_digest c in
    Printf.printf "wsid        %s\nbase        %d\nseq         %d\n" wsid base
      seq;
    Printf.printf "fingerprint %s\n" fp;
    List.iter
      (fun (origin, n) -> Printf.printf "cursor      %s -> %d\n" origin n)
      (List.sort compare cursors)
  in
  Cmd.v
    (Cmd.info "digest"
       ~doc:
         "The server's anti-entropy digest: workspace id, journal window \
          and the canonical state fingerprint (equal fingerprints mean \
          equal design state, whatever the local instance ids).")
    Term.(const run $ remote_socket_arg $ remote_user_arg)

let remote_conflicts_cmd =
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Include conflicts that are already resolved.")
  in
  let run socket user all =
    with_remote socket user @@ fun c ->
    let rows = Client.conflicts c in
    let rows =
      if all then rows else List.filter (fun r -> r.Wire.cf_winner = None) rows
    in
    if rows = [] then print_endline "no conflicts"
    else begin
      Printf.printf "%-4s %-6s %-6s %-8s %-14s %-6s %s\n" "id" "base" "ours"
        "theirs" "origin" "at" "winner";
      List.iter
        (fun r ->
          Printf.printf "%-4d #%-5d #%-5d #%-7d %-14s %-6d %s\n" r.Wire.cf_id
            r.Wire.cf_base r.Wire.cf_ours r.Wire.cf_theirs
            (let o = r.Wire.cf_origin in
             if String.length o > 12 then String.sub o 0 12 ^ ".." else o)
            r.Wire.cf_at
            (match r.Wire.cf_winner with
            | None -> "-"
            | Some w -> Printf.sprintf "#%d" w))
        rows
    end
  in
  Cmd.v
    (Cmd.info "conflicts"
       ~doc:
         "Divergences surfaced by anti-entropy sync: both workspaces \
          derived a version of the same design object; each row names the \
          branch point and the two alternatives.")
    Term.(const run $ remote_socket_arg $ remote_user_arg $ all)

let remote_resolve_cmd =
  let conflict =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"CONFLICT" ~doc:"Conflict id (see $(b,conflicts).)")
  in
  let winner =
    Arg.(
      required
      & pos 1 (some int) None
      & info [] ~docv:"WINNER"
          ~doc:"Winning instance: the conflict's base, ours or theirs.")
  in
  let run socket user conflict winner =
    with_remote socket user @@ fun c ->
    Client.resolve c ~conflict ~winner;
    Printf.printf "conflict %d resolved: winner #%d\n" conflict winner
  in
  Cmd.v
    (Cmd.info "resolve"
       ~doc:
         "Pick the winning version of a surfaced sync conflict.  The losing \
          alternative stays in the store and the version tree; the \
          resolution itself is journaled and syncs onward.")
    Term.(const run $ remote_socket_arg $ remote_user_arg $ conflict $ winner)

let remote_cmd =
  Cmd.group
    (Cmd.info "remote"
       ~doc:"Talk to a $(b,hercules serve) daemon over its socket.")
    [ remote_ping_cmd; remote_stat_cmd; remote_lag_cmd; remote_compact_cmd;
      remote_export_cmd;
      remote_catalog_cmd; remote_browse_cmd; remote_batch_cmd;
      remote_demo_cmd; remote_run_cmd; remote_trace_cmd; remote_refresh_cmd;
      remote_edit_cmd; remote_metrics_cmd; remote_digest_cmd;
      remote_conflicts_cmd;
      remote_resolve_cmd; remote_shutdown_cmd ]

(* ------------------------------------------------------------------ *)
(* hercules cement                                                     *)
(* ------------------------------------------------------------------ *)

(* Offline inspection of a database's tiered cold store: opens only
   [DIR/cemented] (no journal replay), so it is cheap even against a
   deep history and safe against a database a daemon has open — the
   segments are append-only and immutable once sealed. *)
let cement_cmd =
  let read_seq =
    Arg.(
      value
      & opt (some int) None
      & info [ "read" ] ~docv:"SEQ"
          ~doc:"Print the cemented frame payload for this seqno (a \
                checksum-verified positioned read).")
  in
  let run db read_seq =
    let dir = Filename.concat db "cemented" in
    if not (Sys.file_exists dir) then begin
      Printf.eprintf "no cemented history under %s\n" db;
      exit 1
    end;
    let c = Cement.open_ ~dir in
    Fun.protect ~finally:(fun () -> Cement.close c) @@ fun () ->
    match read_seq with
    | Some seqno -> (
      match Cement.read c seqno with
      | Some payload -> print_endline payload
      | None ->
        Printf.eprintf "seq %d is outside the cemented window %d..%d\n" seqno
          (Cement.first_seq c) (Cement.last_seq c);
        exit 1)
    | None ->
      Printf.printf "segments   %d\n" (Cement.segment_count c);
      Printf.printf "bytes      %d\n" (Cement.total_bytes c);
      Printf.printf "first-seq  %d\n" (Cement.first_seq c);
      Printf.printf "last-seq   %d\n" (Cement.last_seq c);
      if Cement.truncated_on_open c > 0 then
        Printf.printf "truncated  %d bytes of torn tail dropped on open\n"
          (Cement.truncated_on_open c)
  in
  Cmd.v
    (Cmd.info "cement"
       ~doc:"Inspect a database directory's tiered cold store (segment \
             count, bytes, cemented seqno window), or read one cemented \
             frame back.")
    Term.(const run $ db_arg $ read_seq)

(* ------------------------------------------------------------------ *)
(* hercules sync                                                       *)
(* ------------------------------------------------------------------ *)

let sync_cmd =
  let peer =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PEER_SOCKET"
          ~doc:"Socket of the peer daemon to reconcile with.")
  in
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:"Count what each side would pull; apply nothing.")
  in
  let batch =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"N" ~doc:"Frames per sync round.")
  in
  let run socket user peer dry_run batch =
    with_remote socket user @@ fun local ->
    with_remote peer (Some (Client.user local)) @@ fun remote ->
    let report =
      Sync.run ~dry_run ~batch ~a:(Sync.of_client local)
        ~b:(Sync.of_client remote) ()
    in
    Format.printf "%a@." Sync.pp_report report;
    let la, _, _, lfp, _, _ = Client.sync_digest local in
    let ra, _, _, rfp, _, _ = Client.sync_digest remote in
    if dry_run then ()
    else if lfp = rfp then
      Printf.printf "workspaces %s and %s converged (fingerprint %s)\n" la ra
        lfp
    else
      Printf.printf
        "fingerprints differ (unresolved divergence or concurrent writes): \
         %s vs %s\nrun the sync again after resolving conflicts\n"
        lfp rfp
  in
  Cmd.v
    (Cmd.info "sync"
       ~doc:
         "Anti-entropy reconciliation of two disconnected workspaces: \
          exchange journal digests with the daemon at $(docv), pull exactly \
          the missing entries in both directions, and surface any \
          conflicting derivations as alternative versions (see $(b,remote \
          conflicts)).")
    Term.(
      const run $ remote_socket_arg $ remote_user_arg $ peer $ dry_run $ batch)

(* ------------------------------------------------------------------ *)
(* hercules top                                                        *)
(* ------------------------------------------------------------------ *)

let top_cmd =
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "n"; "interval" ] ~docv:"SECONDS" ~doc:"Refresh period.")
  in
  let count =
    Arg.(
      value
      & opt (some int) None
      & info [ "count" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) refreshes (default: run until \
             interrupted).")
  in
  let run socket user interval count =
    with_remote socket user @@ fun c ->
    let clear = Unix.isatty Unix.stdout in
    let rec loop i prev =
      let s = Client.stat c in
      let ms = Client.metrics c in
      let t_now = Unix.gettimeofday () in
      if clear then print_string "\027[H\027[2J";
      Printf.printf "hercules top — %s  seq %d  clock %d  uptime %.0fs\n"
        s.Wire.st_role s.Wire.st_seq s.Wire.st_clock s.Wire.st_uptime_s;
      (* counter rates come from the delta against the previous poll *)
      let rate name n =
        match prev with
        | None -> ""
        | Some (t_prev, prev_ms) -> (
          let dt = t_now -. t_prev in
          match
            List.find_opt
              (function
                | Metrics.Counter (n', _) -> n' = name | _ -> false)
              prev_ms
          with
          | Some (Metrics.Counter (_, p)) when dt > 0.0 ->
            Printf.sprintf "  %8.1f/s" (float_of_int (n - p) /. dt)
          | _ -> "")
      in
      let counters =
        List.filter_map
          (function Metrics.Counter (n, v) -> Some (n, v) | _ -> None)
          ms
      and gauges =
        List.filter_map
          (function Metrics.Gauge (n, v) -> Some (n, v) | _ -> None)
          ms
      and histos =
        List.filter_map
          (function Metrics.Histogram (n, h) -> Some (n, h) | _ -> None)
          ms
      in
      if histos <> [] then begin
        Printf.printf "\n%-34s %8s %10s %10s %10s %10s %10s\n" "latency" "n"
          "mean" "p50" "p90" "p99" "max";
        List.iter
          (fun (name, h) ->
            Printf.printf
              "%-34s %8d %10.1f %10.1f %10.1f %10.1f %10.1f\n" name
              h.Metrics.hs_n (Metrics.hs_mean h) h.Metrics.hs_p50
              h.Metrics.hs_p90 h.Metrics.hs_p99 h.Metrics.hs_max)
          histos
      end;
      if counters <> [] then begin
        print_newline ();
        List.iter
          (fun (name, v) ->
            Printf.printf "%-34s %8d%s\n" name v (rate name v))
          counters
      end;
      if gauges <> [] then begin
        print_newline ();
        List.iter
          (fun (name, v) -> Printf.printf "%-34s %8g\n" name v)
          gauges
      end;
      flush stdout;
      match count with
      | Some n when i + 1 >= n -> ()
      | Some _ | None ->
        Unix.sleepf interval;
        loop (i + 1) (Some (t_now, ms))
    in
    loop 0 None
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live server statistics: poll the metrics registry every \
          $(b,--interval) seconds and render latency quantiles, counters \
          (with rates) and gauges.")
    Term.(const run $ remote_socket_arg $ remote_user_arg $ interval $ count)

(* ------------------------------------------------------------------ *)
(* hercules trace-merge                                                *)
(* ------------------------------------------------------------------ *)

let trace_merge_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"The merged chrome://tracing document.")
  in
  let require_flow =
    Arg.(
      value & flag
      & info [ "require-flow" ]
          ~doc:
            "Exit non-zero unless the merged trace contains at least one \
             flow link — a span bound to its parent, the record that draws \
             the cross-process arrow.")
  in
  let inputs =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"JSONL"
          ~doc:
            "JSON-lines trace files ($(b,--trace-format jsonl)), typically \
             one per process.")
  in
  (* Every input line is already one complete trace-event object (the
     jsonl sink emits flow records alongside span begins), so merging
     is concatenation inside the envelope — no JSON parsing. *)
  let contains_sub line sub =
    let n = String.length line and m = String.length sub in
    let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
    go 0
  in
  let run out require_flow inputs =
    let buf = Buffer.create 65536 in
    Buffer.add_string buf "{\"traceEvents\": [";
    let events = ref 0 and flows = ref 0 in
    List.iter
      (fun path ->
        let ic = open_in path in
        (try
           while true do
             let line = String.trim (input_line ic) in
             if line <> "" then begin
               if !events > 0 then Buffer.add_string buf ",\n  ";
               incr events;
               Buffer.add_string buf line;
               if contains_sub line "\"ph\": \"f\"" then incr flows
             end
           done
         with End_of_file -> ());
        close_in ic)
      inputs;
    Buffer.add_string buf "],\n\"displayTimeUnit\": \"ms\"}\n";
    let oc = open_out out in
    Buffer.output_buffer oc buf;
    close_out oc;
    Printf.printf "[%d event(s) from %d file(s), %d flow link(s) -> %s]\n"
      !events (List.length inputs) !flows out;
    if require_flow && !flows = 0 then begin
      Printf.eprintf
        "trace-merge: no flow links — the inputs do not join into one \
         cross-process trace\n";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:
         "Merge per-process JSONL traces into one chrome://tracing \
          document.  The flow records already present in the streams bind \
          client, server and follower spans of one trace together, so the \
          merged view draws the cross-process arrows directly.")
    Term.(const run $ out $ require_flow $ inputs)

(* ------------------------------------------------------------------ *)
(* hercules demo                                                       *)
(* ------------------------------------------------------------------ *)

let demo_cmd =
  let run obs =
    with_obs obs @@ fun () ->
    print_endline
      "Running the section 4.1 walkthrough (see also examples/quickstart.ml).";
    let w = Workspace.create ~user:"sutton" () in
    let session = Workspace.session w in
    let nl = Eda.Circuits.c17 () in
    let nl_iid = Workspace.install_netlist w ~label:"c17" nl in
    let stim_iid =
      Workspace.install_stimuli w
        (Eda.Stimuli.exhaustive nl.Eda.Netlist.primary_inputs)
    in
    let perf = Session.start_goal_based session E.performance in
    ignore (Session.expand session perf);
    let flow = Session.current_flow session in
    let circuit = List.hd (Workspace.find_nodes flow E.circuit) in
    ignore (Session.expand session circuit);
    let flow = Session.current_flow session in
    let node e = List.hd (Workspace.find_nodes flow e) in
    Session.select session (node E.simulator) [ Workspace.tool w E.simulator ];
    Session.select session (node E.netlist) [ nl_iid ];
    Session.select session (node E.stimuli) [ stim_iid ];
    Session.select session (node E.device_models)
      [ Workspace.default_device_models w ];
    print_string (Session.render_task_window session);
    let results = Session.run session perf in
    List.iter
      (fun iid ->
        Format.printf "-> #%d: %a@." iid Value.pp (Workspace.payload w iid))
      results
  in
  Cmd.v (Cmd.info "demo" ~doc:"Run the section 4.1 walkthrough.")
    Term.(const run $ obs_term)

let () =
  let info =
    Cmd.info "hercules" ~version:"1.0"
      ~doc:"Design management using dynamically defined flows (DAC'93)."
  in
  exit (Cmd.eval (Cmd.group info
          [ schema_cmd; flow_cmd; run_cmd; browse_cmd; demo_cmd; export_cmd;
            history_cmd; query_cmd; process_cmd; annotate_cmd;
            recall_cmd; serve_cmd; remote_cmd; cement_cmd; sync_cmd; top_cmd;
            trace_merge_cmd ]))
