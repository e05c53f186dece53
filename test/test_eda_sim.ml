(* Tests for the simulation substrate: stimuli, waveforms, the
   event-driven and compiled simulators, device models, performance
   analysis and the plotter. *)

open Ddf_eda

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let stimuli_tests =
  [
    t "exhaustive covers 2^n vectors" (fun () ->
        check Alcotest.int "8" 8
          (Stimuli.length (Stimuli.exhaustive [ "a"; "b"; "c" ])));
    t "exhaustive is LSB-first" (fun () ->
        let s = Stimuli.exhaustive [ "a"; "b" ] in
        match Stimuli.vectors s with
        | [ v0; v1; _; _ ] ->
          check Alcotest.bool "v0 all zero" true
            (List.for_all (fun (_, x) -> x = Logic.V0) v0);
          check Alcotest.bool "v1 a=1" true (List.assoc "a" v1 = Logic.V1);
          check Alcotest.bool "v1 b=0" true (List.assoc "b" v1 = Logic.V0)
        | _ -> Alcotest.fail "wrong count");
    Util.expect_exn "exhaustive rejects too many inputs"
      (function Stimuli.Stimuli_error _ -> true | _ -> false)
      (fun () -> Stimuli.exhaustive (List.init 21 string_of_int));
    t "walking ones" (fun () ->
        let s = Stimuli.walking_ones [ "a"; "b"; "c" ] in
        check Alcotest.int "3 vectors" 3 (Stimuli.length s);
        List.iteri
          (fun k vec ->
            let ones =
              List.filter (fun (_, x) -> x = Logic.V1) vec |> List.length
            in
            check Alcotest.int (Printf.sprintf "vector %d" k) 1 ones)
          (Stimuli.vectors s));
    t "random stimuli are deterministic per seed" (fun () ->
        let mk () = Stimuli.random ~inputs:[ "a"; "b" ] ~n:10 (Rng.create 7) in
        check Alcotest.string "hash equal" (Stimuli.hash (mk ()))
          (Stimuli.hash (mk ())));
  ]

let waveform_tests =
  let one tr = Waveform.of_traces ~end_time_ps:0 [ ("n", tr) ] in
  [
    t "record and read back" (fun () ->
        let w = one [ (10, Logic.V1); (20, Logic.V0) ] in
        check Alcotest.bool "before" true (Waveform.value_at w "n" 5 = Logic.VX);
        check Alcotest.bool "at 10" true (Waveform.value_at w "n" 10 = Logic.V1);
        check Alcotest.bool "at 15" true (Waveform.value_at w "n" 15 = Logic.V1);
        check Alcotest.bool "at 25" true (Waveform.value_at w "n" 25 = Logic.V0));
    Util.expect_exn "backwards time rejected"
      (function Invalid_argument _ -> true | _ -> false)
      (fun () -> one [ (10, Logic.V1); (5, Logic.V0) ]);
    Util.expect_exn "redundant change rejected"
      (function Invalid_argument _ -> true | _ -> false)
      (fun () -> one [ (10, Logic.V1); (20, Logic.V1) ]);
    t "sampling" (fun () ->
        let w = Waveform.of_traces ~end_time_ps:30 [ ("n", [ (10, Logic.V1) ]) ] in
        check Alcotest.int "samples" 4
          (List.length (Waveform.sample w "n" ~step_ps:10)));
  ]

let simulator_tests =
  let rng = Rng.create 2024 in
  [
    t "event sim settles to functional values" (fun () ->
        let nl = Circuits.full_adder () in
        let stim = Stimuli.exhaustive nl.Netlist.primary_inputs in
        let r = Sim_event.run ~settle_ps:2000 nl stim in
        let last = List.nth (Stimuli.vectors stim) 7 in
        check Alcotest.bool "matches eval" true
          (Sim_event.final_outputs r nl = Netlist.eval nl last));
    t "event sim counts activity" (fun () ->
        let nl = Circuits.c17 () in
        let stim = Stimuli.exhaustive nl.Netlist.primary_inputs in
        let r = Sim_event.run nl stim in
        check Alcotest.bool "events happened" true
          (r.Sim_event.stats.Sim_event.events_processed > 0);
        check Alcotest.bool "gates evaluated" true
          (r.Sim_event.stats.Sim_event.gate_evaluations
           >= r.Sim_event.stats.Sim_event.events_processed / 4));
    t "hazard pulses are captured, steady state is right" (fun () ->
        (* y = a AND not a: glitches on a's rise, settles to 0 *)
        let nl =
          Netlist.create ~name:"glitch" ~primary_inputs:[ "a" ]
            ~primary_outputs:[ "y" ]
            [
              Netlist.gate "gn" Logic.Not [ "a" ] "na";
              Netlist.gate "ga" Logic.And [ "a"; "na" ] "y";
            ]
        in
        let stim =
          Stimuli.create ~interval_ps:1000
            [ [ ("a", Logic.V0) ]; [ ("a", Logic.V1) ] ]
        in
        let r = Sim_event.run ~settle_ps:1000 nl stim in
        check Alcotest.bool "settles to 0" true
          (Waveform.final_value r.Sim_event.waveform "y" = Logic.V0));
    t "compiled simulator instruction count" (fun () ->
        let nl = Circuits.c17 () in
        check Alcotest.int "6 instructions" 6
          (Sim_compiled.instruction_count (Sim_compiled.compile nl)));
    t "compiled simulator runs per vector" (fun () ->
        let nl = Circuits.full_adder () in
        let stim = Stimuli.exhaustive nl.Netlist.primary_inputs in
        let responses = Sim_compiled.run (Sim_compiled.compile nl) stim in
        check Alcotest.int "8 responses" 8 (List.length responses);
        List.iter2
          (fun resp vec ->
            check Alcotest.bool "matches eval" true (resp = Netlist.eval nl vec))
          responses (Stimuli.vectors stim));
    Util.qcheck ~count:50 "event == compiled == eval on random circuits"
      QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 40))
      (fun (seed, n_gates) ->
        let rng = Rng.create seed in
        let nl = Circuits.random ~n_inputs:4 ~n_gates rng in
        let stim = Stimuli.for_netlist ~n:6 nl rng in
        let last = List.nth (Stimuli.vectors stim) (Stimuli.length stim - 1) in
        let ev =
          Sim_event.final_outputs (Sim_event.run ~settle_ps:5000 nl stim) nl
        in
        let co =
          List.nth
            (Sim_compiled.run (Sim_compiled.compile nl) stim)
            (Stimuli.length stim - 1)
        in
        ev = Netlist.eval nl last && co = Netlist.eval nl last);
    Util.qcheck ~count:500 "eval_code agrees with Logic.eval on every op, arity and value"
      QCheck2.Gen.(
        triple (oneofl Logic.all_ops)
          (array_size (int_range 1 4) (oneofl Logic.[ V0; V1; VX ]))
          (list_size (int_range 0 6) (int_bound 3)))
      (fun (op, values, picks) ->
        (* operands read through ids, some of them repeated *)
        let ids = Array.of_list (List.map (fun k -> k mod Array.length values) picks) in
        let outcome f = try Ok (f ()) with Invalid_argument m -> Error m in
        outcome (fun () ->
            Logic.eval op (Array.to_list (Array.map (fun i -> values.(i)) ids)))
        = outcome (fun () ->
              Logic.of_code (Logic.eval_code op ids (Array.map Logic.code values))));
    t "device models scale delay" (fun () ->
        let nl = Circuits.ripple_adder 4 in
        let slow = Performance.critical_path ~model:Device_model.low_power nl in
        let fast = Performance.critical_path ~model:Device_model.fast nl in
        check Alcotest.bool "fast < slow" true (fast < slow));
    t "drive strength shortens the critical path" (fun () ->
        let nl = Circuits.ripple_adder 4 in
        let boosted =
          List.fold_left
            (fun acc (g : Netlist.gate) -> Netlist.set_drive acc g.Netlist.gname 4)
            nl nl.Netlist.gates
        in
        check Alcotest.bool "boosted faster" true
          (Performance.critical_path boosted < Performance.critical_path nl));
    Util.expect_exn "model with vth above vdd rejected"
      (function Device_model.Model_error _ -> true | _ -> false)
      (fun () ->
        Device_model.create ~model_name:"bad" ~process_nm:800 ~vdd_mv:1000
          ~vth_mv:1500 ~delay_scale:1.0 ~power_scale:1.0);
    t "model edits compose" (fun () ->
        let m =
          Device_model.apply_edits Device_model.default
            [ Device_model.Scale_delay 0.5; Device_model.Rename "half" ]
        in
        check Alcotest.string "renamed" "half" m.Device_model.model_name;
        check (Alcotest.float 1e-9) "scaled" 0.5 m.Device_model.delay_scale);
    t "performance analysis is reproducible" (fun () ->
        let nl = Circuits.full_adder () in
        let stim = Stimuli.for_netlist ~n:8 nl rng in
        let p1 = Performance.analyze nl stim and p2 = Performance.analyze nl stim in
        check Alcotest.string "same hash" (Performance.hash p1)
          (Performance.hash p2));
    t "output signature distinguishes circuits" (fun () ->
        let stim = Stimuli.exhaustive [ "a"; "b"; "cin" ] in
        let p1 = Performance.analyze (Circuits.full_adder ()) stim in
        let broken =
          Netlist.set_drive (Circuits.full_adder ()) "g_sum" 4
        in
        let p2 = Performance.analyze broken stim in
        (* drives change timing but not the function *)
        check Alcotest.string "same function" p1.Performance.output_signature
          p2.Performance.output_signature);
    t "plot renders every net" (fun () ->
        let nl = Circuits.full_adder () in
        let stim = Stimuli.exhaustive nl.Netlist.primary_inputs in
        let r = Sim_event.run nl stim in
        let p =
          Plot.of_simulation ~title:"fa" r [ "a"; "b"; "cin"; "sum"; "cout" ]
        in
        List.iter
          (fun net ->
            check Alcotest.bool net true (Util.contains p.Plot.rendering net))
          p.Plot.nets_plotted);
    t "performance plot contains the metrics" (fun () ->
        let nl = Circuits.full_adder () in
        let stim = Stimuli.exhaustive nl.Netlist.primary_inputs in
        let p = Plot.of_performance (Performance.analyze nl stim) in
        check Alcotest.bool "critical path" true
          (Util.contains p.Plot.rendering "critical path"));
  ]

let optimizer_tests =
  [
    t "all strategies improve or preserve the cost" (fun () ->
        let nl = Circuits.ripple_adder 4 in
        List.iter
          (fun strategy ->
            let _, r = Optimize.run ~budget:100 strategy nl (Rng.create 5) in
            check Alcotest.bool (Optimize.strategy_name strategy) true
              (r.Optimize.final_cost <= r.Optimize.initial_cost))
          Optimize.all_strategies);
    t "optimization preserves the function" (fun () ->
        let nl = Circuits.full_adder () in
        let optimized, _ =
          Optimize.run ~budget:60 Optimize.Hill_climb nl (Rng.create 9)
        in
        let stim = Stimuli.exhaustive nl.Netlist.primary_inputs in
        let run n = Sim_compiled.run (Sim_compiled.compile n) stim in
        check Alcotest.bool "same responses" true
          (List.map (List.map snd) (run nl)
           = List.map (List.map snd) (run optimized)));
    t "budget bounds evaluations" (fun () ->
        let _, r =
          Optimize.run ~budget:30 Optimize.Annealing (Circuits.c17 ())
            (Rng.create 3)
        in
        check Alcotest.bool "bounded" true (r.Optimize.evaluations <= 31));
  ]

(* The seeded corpus (sim_corpus.ml) against the text it gave before the
   simulator moved onto integer net ids: byte for byte, float power and
   error messages included. *)
let corpus_tests =
  let golden name text () =
    let expected = Util.golden name in
    if not (String.equal text expected) then begin
      let lines s = String.split_on_char '\n' s in
      let rec first_diff i = function
        | a :: ra, b :: rb -> if a = b then first_diff (i + 1) (ra, rb) else (i, a, b)
        | a :: _, [] -> (i, a, "<end>")
        | [], b :: _ -> (i, "<end>", b)
        | [], [] -> (i, "", "")
      in
      let i, got, want = first_diff 1 (lines text, lines expected) in
      Alcotest.failf "%s line %d:\n got  %s\n want %s" name i got want
    end
  in
  [
    t "analyze records are byte-identical" (fun () ->
        golden "analyze.txt" (Sim_corpus.analyze_text ()) ());
    t "event waveforms and VCD are byte-identical" (fun () ->
        golden "sim_event.txt" (Sim_corpus.sim_event_text ()) ());
    t "timing reports are byte-identical" (fun () ->
        golden "timing.txt" (Sim_corpus.timing_text ()) ());
  ]

let suite =
  [
    ("eda.stimuli", stimuli_tests);
    ("eda.waveform", waveform_tests);
    ("eda.simulation", simulator_tests);
    ("eda.optimize", optimizer_tests);
    ("eda.corpus", corpus_tests);
  ]

(* Sequential circuits: flops, cycle-based simulation. *)
let sequential_tests =
  [
    t "counter counts" (fun () ->
        let nl = Circuits.counter 3 in
        let en = [ ("en", Logic.V1) ] in
        let outs = Netlist.run_cycles nl [ en; en; en; en; en ] in
        let as_int vals =
          List.fold_left
            (fun (acc, i) (_, v) ->
              match Logic.to_bool v with
              | Some true -> (acc lor (1 lsl i), i + 1)
              | Some false -> (acc, i + 1)
              | None -> Alcotest.fail "X in counter")
            (0, 0) vals
          |> fst
        in
        check (Alcotest.list Alcotest.int) "0..4" [ 0; 1; 2; 3; 4 ]
          (List.map as_int outs));
    t "counter holds when disabled" (fun () ->
        let nl = Circuits.counter 2 in
        let en = [ ("en", Logic.V1) ] and off = [ ("en", Logic.V0) ] in
        let outs = Netlist.run_cycles nl [ en; off; off; en ] in
        match outs with
        | [ _; b; c; _ ] -> check Alcotest.bool "held" true (b = c)
        | _ -> Alcotest.fail "wrong cycle count");
    t "shift register delays by n" (fun () ->
        let nl = Circuits.shift_register 3 in
        let v b = [ ("din", Logic.of_bool b) ] in
        let outs =
          Netlist.run_cycles nl [ v true; v false; v false; v false; v false ]
        in
        (* the pulse appears at the output on the 4th cycle *)
        check Alcotest.bool "delayed pulse" true
          (List.map (fun o -> List.assoc "q2" o) outs
           = [ Logic.V0; Logic.V0; Logic.V0; Logic.V1; Logic.V0 ]));
    t "lfsr4 has period 15" (fun () ->
        let nl = Circuits.lfsr4 () in
        let outs = Netlist.run_cycles nl (List.init 31 (fun _ -> [])) in
        let bits = List.map (fun o -> List.assoc "q3" o) outs in
        let first15 = List.filteri (fun i _ -> i < 15) bits in
        let second15 = List.filteri (fun i _ -> i >= 15 && i < 30) bits in
        check Alcotest.bool "periodic" true (first15 = second15);
        check Alcotest.bool "not constant" true
          (List.exists (fun b -> b <> List.hd bits) first15));
    t "compiled simulator agrees with run_cycles" (fun () ->
        let nl = Circuits.counter 4 in
        let vectors = List.init 20 (fun i -> [ ("en", Logic.of_bool (i mod 3 <> 0)) ]) in
        let stim = Stimuli.create vectors in
        let compiled = Sim_compiled.compile nl in
        check Alcotest.bool "same trajectory" true
          (Sim_compiled.run compiled stim = Netlist.run_cycles nl vectors));
    t "flop validation catches double drivers" (fun () ->
        match
          Netlist.create
            ~flops:[ Netlist.flop "f1" ~d:"a" ~q:"q"; Netlist.flop "f2" ~d:"a" ~q:"q" ]
            ~name:"bad" ~primary_inputs:[ "a" ] ~primary_outputs:[ "q" ] []
        with
        | _ -> Alcotest.fail "expected Netlist_error"
        | exception Netlist.Netlist_error _ -> ());
    (* Flop state is kept by flop name: two flops named alike shared one
       value in run_cycles (a=0,b=0 | a=1,b=1 | a=0,b=0 under the vectors
       below) but not in the compiled simulator (a=1,b=0 | a=0,b=1). *)
    t "two flops sharing a name are refused" (fun () ->
        let two g =
          Netlist.create
            ~flops:[ Netlist.flop "f" ~d:"i0" ~q:"a"; Netlist.flop g ~d:"i1" ~q:"b" ]
            ~name:"two" ~primary_inputs:[ "i0"; "i1" ] ~primary_outputs:[ "a"; "b" ] []
        in
        (match two "f" with
        | _ -> Alcotest.fail "expected Netlist_error"
        | exception Netlist.Netlist_error m ->
          check Alcotest.string "message" "duplicate flop name f" m);
        let nl = two "g" in
        let v a b = [ ("i0", Logic.of_bool a); ("i1", Logic.of_bool b) ] in
        let vectors = [ v true false; v false true; v true true ] in
        let read outs =
          List.map (fun o -> (List.assoc "a" o, List.assoc "b" o)) outs
        in
        let want = Logic.[ (V0, V0); (V1, V0); (V0, V1) ] in
        check Alcotest.bool "run_cycles" true (read (Netlist.run_cycles nl vectors) = want);
        check Alcotest.bool "compiled" true
          (read (Sim_compiled.run (Sim_compiled.compile nl) (Stimuli.create vectors))
           = want));
    t "event simulator refuses sequential designs" (fun () ->
        match
          Sim_event.run (Circuits.counter 2) (Stimuli.create [ [] ])
        with
        | _ -> Alcotest.fail "expected Simulation_error"
        | exception Sim_event.Simulation_error _ -> ());
    t "placer refuses sequential designs" (fun () ->
        match Layout.place (Circuits.lfsr4 ()) with
        | _ -> Alcotest.fail "expected Layout_error"
        | exception Layout.Layout_error _ -> ());
    t "hierarchical designs may contain sequential cells" (fun () ->
        let cell = Circuits.counter 2 in
        let h =
          Hier.create ~design_name:"two_counters"
            ~cells:[ ("counter", cell) ]
            ~top_inputs:[ "en" ] ~top_outputs:[ "a1"; "b1" ]
            [
              { Hier.inst_name = "u1"; cell = "counter";
                connections = [ ("en", "en"); ("q0", "a0"); ("q1", "a1") ] };
              { Hier.inst_name = "u2"; cell = "counter";
                connections = [ ("en", "en"); ("q0", "b0"); ("q1", "b1") ] };
            ]
        in
        let flat = Hier.flatten h in
        check Alcotest.bool "sequential flat" true (Netlist.is_sequential flat);
        let en = [ ("en", Logic.V1) ] in
        let outs = Netlist.run_cycles flat [ en; en; en ] in
        (* both counters march in lockstep: a1 = b1 always *)
        check Alcotest.bool "lockstep" true
          (List.for_all
             (fun o -> List.assoc "a1" o = List.assoc "b1" o)
             outs));
    t "sequential netlists persist" (fun () ->
        let v = Ddf_data.Netlist (Circuits.lfsr4 ()) in
        let v2 =
          Ddf_persist.Codec.value_of_sexp (Ddf_persist.Codec.value_to_sexp v)
        in
        check Alcotest.string "hash" (Ddf_data.hash v) (Ddf_data.hash v2));
  ]

let suite = suite @ [ ("eda.sequential", sequential_tests) ]
