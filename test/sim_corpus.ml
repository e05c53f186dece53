(* A seeded corpus for the simulator tool: netlists (random DAGs, the
   library circuits and hand-built edge cases), the three device
   models, and stimuli that drive every input, some inputs, none of
   them, or no vectors at all.  Each case prints what
   [Performance.analyze], [Sim_event.run] or the timing report gives,
   raised exceptions included, so the text pins every field, the float
   power's exact bytes and every error message.  test_eda_sim.ml
   compares it byte for byte with golden/analyze.txt,
   golden/sim_event.txt and golden/timing.txt. *)

open Ddf_eda

let models = Device_model.[ default; fast; low_power ]

(* Netlists that [Netlist.create] would refuse, built as records so the
   simulator and the timing pass meet them as a tool could. *)
let raw name ?(flops = []) ~inputs ~outputs gates =
  { Netlist.name; primary_inputs = inputs; primary_outputs = outputs;
    gates; flops }

let g ?(drive = 1) gname op inputs output =
  { Netlist.gname; op; inputs; output; drive }

(* One gate reads a net twice, outputs repeat, a primary input is also
   an output: reader lists keep duplicates and react order matters. *)
let repeated_reads () =
  Netlist.create ~name:"repeated" ~primary_inputs:[ "a"; "b"; "c" ]
    ~primary_outputs:[ "z"; "y"; "z"; "a" ]
    [
      Netlist.gate "g0" Logic.And [ "a"; "a" ] "y";
      Netlist.gate ~drive:2 "g1" Logic.Xnor [ "a"; "b"; "y" ] "z";
      Netlist.gate "g2" Logic.Nor [ "y"; "c"; "b" ] "u";
      Netlist.gate ~drive:4 "g3" Logic.Xor [ "u"; "z" ] "v";
      Netlist.gate "g4" Logic.Nand [ "v"; "v"; "a" ] "w";
    ]

let glitch () =
  Netlist.create ~name:"glitch" ~primary_inputs:[ "a" ] ~primary_outputs:[ "y" ]
    [
      Netlist.gate "gn" Logic.Not [ "a" ] "na";
      Netlist.gate "ga" Logic.And [ "a"; "na" ] "y";
    ]

let ring () =
  raw "ring" ~inputs:[ "a" ] ~outputs:[ "y" ] [ g "g" Logic.Nand [ "a"; "y" ] "y" ]

let latch () =
  raw "latch" ~inputs:[ "a" ] ~outputs:[ "y" ] [ g "g" Logic.And [ "a"; "y" ] "y" ]

let two_drivers () =
  raw "two_drivers" ~inputs:[ "a"; "b" ] ~outputs:[ "y" ]
    [ g "g0" Logic.Not [ "a" ] "y"; g "g1" Logic.Buf [ "b" ] "y" ]

let two_drivers_cycle () =
  raw "two_drivers_cycle" ~inputs:[ "a" ] ~outputs:[ "y" ]
    [ g "g0" Logic.And [ "a"; "y" ] "y"; g "g1" Logic.Buf [ "a" ] "y" ]

let undriven () =
  raw "undriven" ~inputs:[ "a" ] ~outputs:[ "y"; "z" ]
    [ g "g0" Logic.Not [ "a" ] "n"; g "g1" Logic.And [ "n"; "ghost" ] "y";
      g "g2" Logic.Or [ "y"; "a" ] "z" ]

let deep_cycle () =
  raw "deep_cycle" ~inputs:[ "a" ] ~outputs:[ "q" ]
    [ g "g0" Logic.Buf [ "r" ] "p"; g "g1" Logic.And [ "a"; "p" ] "q";
      g "g2" Logic.Or [ "q"; "a" ] "r" ]

let no_inputs () =
  raw "no_inputs" ~inputs:[ "a" ] ~outputs:[ "y"; "k" ]
    [ g "g0" Logic.Buf [] "k"; g ~drive:2 "g1" Logic.And [ "a"; "k" ] "y" ]

let bad_arity () =
  raw "bad_arity" ~inputs:[ "a"; "b" ] ~outputs:[ "y"; "z" ]
    [ g "g0" Logic.Not [ "a"; "b" ] "y"; g "g1" Logic.And [ "b" ] "z" ]

(* ------------------------------------------------------------------ *)
(* Stimuli                                                             *)
(* ------------------------------------------------------------------ *)

type kind =
  | Exhaustive
  | Random of int
  | Undriven of int      (* exhaustive over nets the netlist never reads *)
  | Partly               (* exhaustive over the first inputs only *)
  | Zero                 (* no vectors *)
  | Empty_vectors of int (* vectors that set nothing *)

let kind_name = function
  | Exhaustive -> "exhaustive"
  | Random n -> Printf.sprintf "random%d" n
  | Undriven n -> Printf.sprintf "undriven%d" n
  | Partly -> "partly"
  | Zero -> "zero"
  | Empty_vectors n -> Printf.sprintf "empty%d" n

let take n l = List.filteri (fun i _ -> i < n) l

let stimuli kind (nl : Netlist.t) rng =
  let inputs = nl.Netlist.primary_inputs in
  match kind with
  | Exhaustive -> Stimuli.exhaustive inputs
  | Random n -> Stimuli.random ~inputs ~n rng
  | Undriven n -> Stimuli.exhaustive (List.init n (Printf.sprintf "s_i%d"))
  | Partly ->
    let k = max 1 (List.length inputs / 2) in
    if k > 4 then Stimuli.random ~inputs:(take k inputs) ~n:24 rng
    else Stimuli.exhaustive (take k inputs)
  | Zero -> Stimuli.create []
  | Empty_vectors n -> Stimuli.create ~interval_ps:700 (List.init n (fun _ -> []))

(* Hand-written vectors: X values, a net set twice in one vector, a
   gate output forced from outside, nets unknown to the netlist. *)
let odd_stimuli () =
  Stimuli.create ~interval_ps:150
    [
      [ ("a", Logic.V0); ("b", Logic.VX); ("c", Logic.V1) ];
      [ ("a", Logic.V1); ("a", Logic.V0); ("y", Logic.V1) ];
      [ ("b", Logic.V1); ("zz", Logic.V1); ("c", Logic.V0) ];
      [ ("a", Logic.V1); ("u", Logic.V0); ("b", Logic.V0) ];
      [ ("y", Logic.VX); ("a", Logic.VX) ];
      [ ("a", Logic.V0); ("b", Logic.V1); ("c", Logic.V1); ("a", Logic.V1) ];
    ]

let toggle net n =
  Stimuli.create ~interval_ps:400
    (List.init n (fun k -> [ (net, Logic.of_bool (k land 1 = 1)) ]))

(* ------------------------------------------------------------------ *)
(* The cases                                                           *)
(* ------------------------------------------------------------------ *)

type case = {
  label : string;
  netlist : unit -> Netlist.t;
  model : Device_model.t;
  stim : unit -> Stimuli.t;
}

let case label netlist model stim = { label; netlist; model; stim }

let library_cases () =
  let lib =
    [
      ("c17", Circuits.c17, [ Exhaustive; Random 16; Undriven 3; Partly; Zero ]);
      ("adder4", (fun () -> Circuits.ripple_adder 4),
       [ Exhaustive; Random 64; Undriven 2; Partly; Empty_vectors 3 ]);
      ("adder8", (fun () -> Circuits.ripple_adder 8),
       [ Random 256; Random 32; Undriven 4; Partly; Zero ]);
      ("full_adder", Circuits.full_adder, [ Exhaustive; Partly ]);
      ("repeated", repeated_reads, [ Exhaustive; Random 40; Partly ]);
    ]
  in
  List.concat_map
    (fun (name, mk, kinds) ->
      List.concat_map
        (fun model ->
          List.map
            (fun kind ->
              let seed = Hashtbl.hash (name, kind_name kind) in
              case
                (Printf.sprintf "%s/%s/%s" name (kind_name kind)
                   model.Device_model.model_name)
                mk model
                (fun () -> stimuli kind (mk ()) (Rng.create seed)))
            kinds)
        models)
    lib

let random_cases () =
  let kinds = [| Exhaustive; Random 20; Undriven 2; Partly; Random 7; Zero |] in
  List.init 240 (fun i ->
      let seed = 7000 + i in
      let n_inputs = 2 + (i mod 5) and n_gates = 2 + ((i * 7) mod 39) in
      let kind = kinds.(i mod Array.length kinds) in
      let model = List.nth models (i / Array.length kinds mod 3) in
      let mk () =
        Circuits.random ~name:(Printf.sprintf "r%d" i) ~n_inputs ~n_gates
          (Rng.create seed)
      in
      case
        (Printf.sprintf "random%d/%di/%dg/%s/%s" i n_inputs n_gates
           (kind_name kind) model.Device_model.model_name)
        mk model
        (fun () -> stimuli kind (mk ()) (Rng.create (seed * 31))))

(* Each raise the tool can make: sequential, oscillation, several
   drivers, a cycle that settles, an undriven net, a bad arity. *)
let edge_cases () =
  let d = Device_model.default in
  [
    case "repeated/odd/generic_800" repeated_reads d odd_stimuli;
    case "repeated/odd/lp_800" repeated_reads Device_model.low_power odd_stimuli;
    case "glitch/toggle" glitch d (fun () -> toggle "a" 5);
    case "no_inputs/toggle" no_inputs Device_model.fast (fun () -> toggle "a" 3);
    case "sequential/counter2" (fun () -> Circuits.counter 2) d
      (fun () -> Stimuli.create [ [ ("en", Logic.V1) ] ]);
    case "sequential/zero" Circuits.s27 d (fun () -> Stimuli.create []);
    case "ring/oscillates" ring d (fun () -> toggle "a" 2);
    case "ring/held" ring d (fun () -> Stimuli.create [ [ ("a", Logic.V0) ] ]);
    case "latch/settles" latch d (fun () -> toggle "a" 2);
    case "two_drivers" two_drivers d (fun () -> Stimuli.exhaustive [ "a"; "b" ]);
    case "two_drivers_cycle" two_drivers_cycle d (fun () -> toggle "a" 3);
    case "undriven" undriven d (fun () -> toggle "a" 4);
    case "deep_cycle" deep_cycle Device_model.fast (fun () -> toggle "a" 3);
    case "bad_arity/driven" bad_arity d (fun () -> toggle "a" 2);
    case "bad_arity/quiet" bad_arity d (fun () -> toggle "q" 2);
  ]

let cases () = library_cases () @ random_cases () @ edge_cases ()

let attempt f = try f () with e -> "raised " ^ Printexc.to_string e

(* One line per case: the label, then the record's codec text or the
   exception. *)
let analyze_text () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun c ->
      let line =
        attempt (fun () ->
            let p = Performance.analyze ~model:c.model (c.netlist ()) (c.stim ()) in
            Ddf_persist.Codec.value_to_text (Ddf_data.Performance p))
      in
      Printf.bprintf buf "%s %s\n" c.label line)
    (cases ());
  Buffer.contents buf

(* [Sim_event.run] itself: stats, end time, waveform hash and the VCD
   of every net, for a few cases and settle times. *)
let sim_event_text () =
  let runs =
    [
      ("c17/exhaustive", Circuits.c17, Device_model.default, 0,
       fun () -> Stimuli.exhaustive (Circuits.c17 ()).Netlist.primary_inputs);
      ("full_adder/exhaustive/settle500", Circuits.full_adder, Device_model.fast, 500,
       fun () -> Stimuli.exhaustive [ "a"; "b"; "cin" ]);
      ("glitch/toggle/settle1000", glitch, Device_model.low_power, 1000,
       fun () -> toggle "a" 4);
      ("repeated/odd", repeated_reads, Device_model.default, 0, odd_stimuli);
      ("repeated/odd/settle90", repeated_reads, Device_model.fast, 90, odd_stimuli);
      ("adder4/partly", (fun () -> Circuits.ripple_adder 4), Device_model.default, 0,
       fun () -> stimuli Partly (Circuits.ripple_adder 4) (Rng.create 3));
      ("random17/undriven", (fun () ->
           Circuits.random ~n_inputs:4 ~n_gates:17 (Rng.create 17)),
       Device_model.default, 0, fun () -> Stimuli.exhaustive [ "s_i0"; "s_i1" ]);
      ("random31/random", (fun () ->
           Circuits.random ~n_inputs:5 ~n_gates:31 (Rng.create 31)),
       Device_model.low_power, 2000, fun () ->
         Stimuli.for_netlist ~n:12 (Circuits.random ~n_inputs:5 ~n_gates:31
                                      (Rng.create 31)) (Rng.create 4));
      ("latch/settles", latch, Device_model.default, 0, fun () -> toggle "a" 2);
      ("empty_vectors", Circuits.c17, Device_model.default, 0,
       fun () -> stimuli (Empty_vectors 2) (Circuits.c17 ()) (Rng.create 1));
    ]
  in
  let buf = Buffer.create 65536 in
  List.iter
    (fun (label, nl, model, settle_ps, stim) ->
      let text =
        attempt (fun () ->
            let r = Sim_event.run ~model ~settle_ps (nl ()) (stim ()) in
            let w = r.Sim_event.waveform in
            let nets = Waveform.nets w in
            Printf.sprintf "events %d evals %d end %d hash %s\n%s"
              r.Sim_event.stats.Sim_event.events_processed
              r.Sim_event.stats.Sim_event.gate_evaluations
              (Waveform.end_time_ps w) (Waveform.hash w)
              (if nets = [] then "" else Vcd.to_string w nets))
      in
      Printf.bprintf buf "== %s\n%s\n" label text)
    runs;
  Buffer.contents buf

(* Static timing over every model: the critical path and the report,
   sequential netlists and the raising edge cases included. *)
let timing_text () =
  let nets =
    [
      ("c17", Circuits.c17); ("full_adder", Circuits.full_adder);
      ("adder4", fun () -> Circuits.ripple_adder 4);
      ("adder8", fun () -> Circuits.ripple_adder 8);
      ("parity8", fun () -> Circuits.parity 8); ("mux4", Circuits.mux4);
      ("counter3", fun () -> Circuits.counter 3); ("s27", Circuits.s27);
      ("lfsr4", Circuits.lfsr4); ("repeated", repeated_reads);
      ("no_inputs", no_inputs); ("two_drivers", two_drivers);
      ("latch", latch); ("undriven", undriven); ("deep_cycle", deep_cycle);
      ("random40", fun () -> Circuits.random ~n_inputs:6 ~n_gates:40 (Rng.create 40));
    ]
  in
  let buf = Buffer.create 65536 in
  List.iter
    (fun (name, nl) ->
      List.iter
        (fun model ->
          let text =
            attempt (fun () ->
                let cp = Performance.critical_path ~model (nl ()) in
                let report = Performance.critical_path_report ~model (nl ()) in
                Fmt.str "%d@.%a" cp Performance.pp_path report)
          in
          Printf.bprintf buf "== %s/%s\n%s\n" name model.Device_model.model_name text)
        models)
    nets;
  Buffer.contents buf
