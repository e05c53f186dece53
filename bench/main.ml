(* The experiment harness: one section per figure of the paper, plus
   the ablations of DESIGN.md.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --only E5    -- one experiment
     dune exec bench/main.exe -- --list       -- list experiment ids
     dune exec bench/main.exe -- --quota 0.05 -- faster bechamel runs
     dune exec bench/main.exe -- --json F     -- also write per-experiment
                                                metrics JSON to F *)

let experiments =
  [
    ("E1", "Fig. 1: example task schema", Exp_fig1.run);
    ("E2", "Fig. 2: tool created during design", Exp_fig2.run);
    ("E3", "Fig. 3: flow representations", Exp_fig3.run);
    ("E4", "Fig. 4: expansion operations", Exp_fig4.run);
    ("E5", "Fig. 5: complex flow", Exp_fig5.run);
    ("E6", "Fig. 6: parallel branches", Exp_fig6.run);
    ("E7", "Figs. 7-8: views and view flows", Exp_fig78.run);
    ("E9", "Fig. 9: session and browser", Exp_fig9.run);
    ("E10", "Fig. 10: history queries", Exp_fig10.run);
    ("E11", "Fig. 11: versioning", Exp_fig11.run);
    ("A", "ablations A1-A4", Exp_ablations.run);
    ("S", "design server: wire throughput and latency", Exp_server.run);
    ("R", "replication: read scaling and apply lag", Exp_replica.run);
    ("P", "hot paths: group commit, pipelined batches, indexed queries",
     Exp_perf.run);
    ("O", "overload: load shedding keeps the latency tail bounded",
     Exp_overload.run);
    ("T", "telemetry: tracing overhead on the write path", Exp_trace.run);
    ("Y", "anti-entropy sync: frames vs delta size, round latency",
     Exp_sync.run);
    ("C", "tiered storage: cemented replay, cold reads, streamed bootstrap",
     Exp_cement.run);
    ("W", "wire codec: encode/decode, framed throughput",
     Exp_wire.run);
    ("M", "MVCC: domain-pool read scaling while writes commit",
     Exp_mvcc.run);
  ]

let () =
  let only = ref None and list = ref false and json = ref None in
  let rec parse = function
    | [] -> ()
    | "--only" :: id :: rest ->
      only := Some id;
      parse rest
    | "--list" :: rest ->
      list := true;
      parse rest
    | "--quota" :: q :: rest ->
      Bench_util.quota := float_of_string q;
      parse rest
    | "--json" :: path :: rest ->
      json := Some path;
      parse rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list then
    List.iter (fun (id, title, _) -> Printf.printf "%-4s %s\n" id title)
      experiments
  else begin
    let selected =
      match !only with
      | None -> experiments
      | Some id -> (
        match List.filter (fun (i, _, _) -> i = id) experiments with
        | [] ->
          Printf.eprintf "no experiment %S (try --list)\n" id;
          exit 2
        | l -> l)
    in
    List.iter
      (fun (id, title, run) -> Bench_util.run_recorded ~id ~title run)
      selected;
    print_newline ();
    Option.iter Bench_util.write_json !json
  end
