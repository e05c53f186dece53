(* Tests for the netlist substrate: construction, validation,
   evaluation, editing and the circuit zoo. *)

open Ddf_eda

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let expect_netlist_error name f =
  Util.expect_exn name
    (function Netlist.Netlist_error _ -> true | _ -> false)
    f

let v = Alcotest.testable (Fmt.of_to_string Logic.value_name) ( = )

let eval_bits nl bits =
  let env =
    List.map2
      (fun name b -> (name, Logic.of_bool b))
      nl.Netlist.primary_inputs bits
  in
  List.map snd (Netlist.eval nl env)

let logic_tests =
  [
    t "three-valued operators" (fun () ->
        check v "and x 0" Logic.V0 (Logic.v_and Logic.VX Logic.V0);
        check v "and x 1" Logic.VX (Logic.v_and Logic.VX Logic.V1);
        check v "or x 1" Logic.V1 (Logic.v_or Logic.VX Logic.V1);
        check v "or x 0" Logic.VX (Logic.v_or Logic.VX Logic.V0);
        check v "xor x 1" Logic.VX (Logic.v_xor Logic.VX Logic.V1);
        check v "not x" Logic.VX (Logic.v_not Logic.VX));
    t "n-ary evaluation" (fun () ->
        check v "nand3" Logic.V1
          (Logic.eval Logic.Nand [ Logic.V1; Logic.V1; Logic.V0 ]);
        check v "nor3" Logic.V0
          (Logic.eval Logic.Nor [ Logic.V0; Logic.V1; Logic.V0 ]);
        check v "xor3 parity" Logic.V1
          (Logic.eval Logic.Xor [ Logic.V1; Logic.V1; Logic.V1 ]));
    t "operator names round-trip" (fun () ->
        List.iter
          (fun op ->
            check Alcotest.bool (Logic.op_name op) true
              (Logic.op_of_name (Logic.op_name op) = Some op))
          Logic.all_ops);
    t "arity checks" (fun () ->
        check Alcotest.bool "not/1" true (Logic.arity_ok Logic.Not 1);
        check Alcotest.bool "not/2" false (Logic.arity_ok Logic.Not 2);
        check Alcotest.bool "and/1" false (Logic.arity_ok Logic.And 1);
        check Alcotest.bool "and/4" true (Logic.arity_ok Logic.And 4));
  ]

let construction_tests =
  [
    expect_netlist_error "multiple drivers" (fun () ->
        Netlist.create ~name:"bad" ~primary_inputs:[ "a" ] ~primary_outputs:[ "y" ]
          [
            Netlist.gate "g1" Logic.Not [ "a" ] "y";
            Netlist.gate "g2" Logic.Buf [ "a" ] "y";
          ]);
    expect_netlist_error "undriven input" (fun () ->
        Netlist.create ~name:"bad" ~primary_inputs:[ "a" ] ~primary_outputs:[ "y" ]
          [ Netlist.gate "g1" Logic.And [ "a"; "ghost" ] "y" ]);
    expect_netlist_error "driven primary input" (fun () ->
        Netlist.create ~name:"bad" ~primary_inputs:[ "a"; "b" ]
          ~primary_outputs:[ "b" ]
          [ Netlist.gate "g1" Logic.Not [ "a" ] "b" ]);
    expect_netlist_error "undriven primary output" (fun () ->
        Netlist.create ~name:"bad" ~primary_inputs:[ "a" ] ~primary_outputs:[ "y" ]
          []);
    expect_netlist_error "duplicate gate name" (fun () ->
        Netlist.create ~name:"bad" ~primary_inputs:[ "a" ]
          ~primary_outputs:[ "x"; "y" ]
          [
            Netlist.gate "g" Logic.Not [ "a" ] "x";
            Netlist.gate "g" Logic.Not [ "a" ] "y";
          ]);
    expect_netlist_error "bad arity" (fun () ->
        ignore (Netlist.gate "g" Logic.And [ "a" ] "y"));
    expect_netlist_error "bad drive" (fun () ->
        ignore (Netlist.gate ~drive:3 "g" Logic.Not [ "a" ] "y"));
    expect_netlist_error "combinational cycle detected by levelize" (fun () ->
        let nl =
          Netlist.create ~name:"cyc" ~primary_inputs:[ "a" ]
            ~primary_outputs:[ "y" ]
            [
              Netlist.gate "g1" Logic.And [ "a"; "z" ] "y";
              Netlist.gate "g2" Logic.Buf [ "y" ] "z";
            ]
        in
        Netlist.levelized (Netlist.index nl));
    t "depth of the full adder" (fun () ->
        check Alcotest.int "depth" 3 (Netlist.depth (Circuits.full_adder ())));
    t "transistor count grows with gates" (fun () ->
        check Alcotest.bool "positive" true
          (Netlist.transistor_count (Circuits.c17 ()) > 0));
    t "hash is stable and content-sensitive" (fun () ->
        let a = Circuits.c17 () and b = Circuits.c17 () in
        check Alcotest.string "same" (Netlist.hash a) (Netlist.hash b);
        let c = Netlist.set_drive a "g10" 2 in
        check Alcotest.bool "differs" false (Netlist.hash a = Netlist.hash c));
  ]

let eval_tests =
  [
    t "full adder truth table" (fun () ->
        let nl = Circuits.full_adder () in
        (* inputs a b cin -> sum cout *)
        let cases =
          [
            ([ false; false; false ], [ Logic.V0; Logic.V0 ]);
            ([ true; false; false ], [ Logic.V1; Logic.V0 ]);
            ([ true; true; false ], [ Logic.V0; Logic.V1 ]);
            ([ true; true; true ], [ Logic.V1; Logic.V1 ]);
            ([ false; true; true ], [ Logic.V0; Logic.V1 ]);
          ]
        in
        List.iter
          (fun (bits, expected) ->
            check (Alcotest.list v) "row" expected (eval_bits nl bits))
          cases);
    t "ripple adder adds" (fun () ->
        let nl = Circuits.ripple_adder 4 in
        let to_bits n k = List.init n (fun i -> (k lsr i) land 1 = 1) in
        let of_vals vals =
          List.fold_left
            (fun (acc, i) value ->
              match Logic.to_bool value with
              | Some true -> (acc lor (1 lsl i), i + 1)
              | Some false -> (acc, i + 1)
              | None -> Alcotest.fail "X output")
            (0, 0) vals
          |> fst
        in
        List.iter
          (fun (a, b, cin) ->
            let env = (cin = 1) :: List.concat (List.init 4 (fun i ->
                [ List.nth (to_bits 4 a) i; List.nth (to_bits 4 b) i ]))
            in
            let out = of_vals (eval_bits nl env) in
            check Alcotest.int
              (Printf.sprintf "%d+%d+%d" a b cin)
              (a + b + cin) out)
          [ (3, 5, 0); (15, 1, 0); (9, 9, 1); (0, 0, 1); (15, 15, 1) ]);
    t "parity tree" (fun () ->
        let nl = Circuits.parity 8 in
        let bits = [ true; false; true; true; false; false; true; false ] in
        check (Alcotest.list v) "odd parity" [ Logic.V0 ] (eval_bits nl bits);
        let bits = [ true; false; true; true; false; false; true; true ] in
        check (Alcotest.list v) "even parity" [ Logic.V1 ] (eval_bits nl bits));
    t "mux4 selects" (fun () ->
        let nl = Circuits.mux4 () in
        (* d0..d3, s0, s1 *)
        let sel s0 s1 d =
          let bits = [ d = 0; d = 1; d = 2; d = 3; s0; s1 ] in
          eval_bits nl bits = [ Logic.V1 ]
        in
        check Alcotest.bool "00->d0" true (sel false false 0);
        check Alcotest.bool "10->d1" true (sel true false 1);
        check Alcotest.bool "01->d2" true (sel false true 2);
        check Alcotest.bool "11->d3" true (sel true true 3));
    t "X propagates through eval" (fun () ->
        let nl = Circuits.inverter () in
        check (Alcotest.list v) "X in, X out" [ Logic.VX ] (Netlist.eval nl [] |> List.map snd));
  ]

let edit_tests =
  [
    t "add and remove a gate" (fun () ->
        let nl = Circuits.c17 () in
        let nl2 =
          Netlist.add_gate nl (Netlist.gate "extra" Logic.Not [ "n22" ] "n24")
        in
        check Alcotest.int "one more" (Netlist.gate_count nl + 1)
          (Netlist.gate_count nl2);
        let nl3 = Netlist.remove_gate nl2 "extra" in
        check Alcotest.bool "hash restored" true
          (Netlist.hash { nl3 with Netlist.name = nl.Netlist.name }
           = Netlist.hash nl));
    expect_netlist_error "removing a needed gate breaks validation" (fun () ->
        Netlist.remove_gate (Circuits.c17 ()) "g22");
    t "edit script applies in order" (fun () ->
        let script =
          Edit_script.create ~name:"s"
            [
              Edit_script.Set_drive ("g10", 4);
              Edit_script.Insert_buffer { net = "n11"; gname = "b1" };
              Edit_script.Rename "c17v2";
            ]
        in
        let nl = Edit_script.apply (Circuits.c17 ()) script in
        check Alcotest.string "renamed" "c17v2" nl.Netlist.name;
        check Alcotest.int "buffer added" 7 (Netlist.gate_count nl);
        match Netlist.find_gate nl "g10" with
        | Some g -> check Alcotest.int "drive" 4 g.Netlist.drive
        | None -> Alcotest.fail "gate lost");
    t "insert_buffer preserves function" (fun () ->
        let nl = Circuits.full_adder () in
        let script =
          Edit_script.create
            [ Edit_script.Insert_buffer { net = "x1"; gname = "b" } ]
        in
        let nl2 = Edit_script.apply nl script in
        let stim = Stimuli.exhaustive nl.Netlist.primary_inputs in
        let run n =
          let c = Sim_compiled.compile n in
          Sim_compiled.run c stim |> List.map (List.map snd)
        in
        check Alcotest.bool "equal responses" true (run nl = run nl2));
    Util.expect_exn "buffering an unread net fails"
      (function Edit_script.Edit_error _ -> true | _ -> false)
      (fun () ->
        Edit_script.apply (Circuits.full_adder ())
          (Edit_script.create
             [ Edit_script.Insert_buffer { net = "sum"; gname = "b" } ]));
  ]

(* property tests over random netlists *)
let property_tests =
  let open QCheck2 in
  let netlist_gen =
    Gen.map
      (fun (seed, (n_inputs, n_gates)) ->
        Circuits.random ~n_inputs ~n_gates (Rng.create seed))
      Gen.(pair (int_bound 1_000_000) (pair (int_range 2 6) (int_range 1 60)))
  in
  [
    Util.qcheck "random netlists validate" netlist_gen (fun nl ->
        Netlist.validate nl;
        true);
    Util.qcheck "levelize covers every gate" netlist_gen (fun nl ->
        let order, _ = Netlist.levelized (Netlist.index nl) in
        Array.length order = Netlist.gate_count nl);
    Util.qcheck "eval is deterministic" netlist_gen (fun nl ->
        let rng = Rng.create 1 in
        let env =
          List.map
            (fun i -> (i, Logic.of_bool (Rng.bool rng)))
            nl.Netlist.primary_inputs
        in
        Netlist.eval nl env = Netlist.eval nl env);
    Util.qcheck "binary eval yields no X" netlist_gen (fun nl ->
        let rng = Rng.create 2 in
        let env =
          List.map
            (fun i -> (i, Logic.of_bool (Rng.bool rng)))
            nl.Netlist.primary_inputs
        in
        List.for_all (fun (_, x) -> x <> Logic.VX) (Netlist.eval nl env));
  ]

(* The content hash's oracle: the canonical string as it was first
   written, one Printf per gate and flop.  The buffer-only version
   must write the same bytes, or every stored hash changes. *)
let printf_canonical_string (nl : Netlist.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf nl.name;
  Buffer.add_string buf "|pi:";
  Buffer.add_string buf (String.concat "," nl.primary_inputs);
  Buffer.add_string buf "|po:";
  Buffer.add_string buf (String.concat "," nl.primary_outputs);
  let gs =
    List.sort (fun a b -> compare a.Netlist.gname b.Netlist.gname) nl.gates
  in
  List.iter
    (fun (g : Netlist.gate) ->
      Buffer.add_string buf
        (Printf.sprintf "|%s:%s(%s)->%s@%d" g.gname (Logic.op_name g.op)
           (String.concat "," g.inputs) g.output g.drive))
    gs;
  List.iter
    (fun (f : Netlist.flop) ->
      Buffer.add_string buf
        (Printf.sprintf "|%s:dff(%s)->%s=%s" f.fname f.d f.q
           (Logic.value_name f.init)))
    (List.sort (fun a b -> compare a.Netlist.fname b.Netlist.fname) nl.flops);
  Buffer.contents buf

let canonical_oracle_test =
  let open QCheck2 in
  (* short names over a small alphabet, so names repeat and sort ties
     happen; drives beyond the validated 1/2/4 cover every digit
     count *)
  let name = Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '1'; '_' ]) (int_range 0 3)) in
  let names = Gen.(list_size (int_range 0 4) name) in
  let gate =
    Gen.map
      (fun ((gname, op), (inputs, output), drive) ->
        { Netlist.gname; op; inputs; output; drive })
      Gen.(
        triple (pair name (oneofl Logic.all_ops)) (pair names name)
          (oneof [ oneofl [ 1; 2; 4 ]; int_range (-20) 20; int ]))
  in
  let flop =
    Gen.map
      (fun ((fname, d), (q, init)) -> { Netlist.fname; d; q; init })
      Gen.(pair (pair name name) (pair name (oneofl Logic.[ V0; V1; VX ])))
  in
  let netlist =
    Gen.map
      (fun ((name, primary_inputs, primary_outputs), (gates, flops)) ->
        { Netlist.name; primary_inputs; primary_outputs; gates; flops })
      Gen.(
        pair (triple name names names)
          (pair
             (list_size (int_range 0 30) gate)
             (oneof [ pure []; list_size (int_range 1 6) flop ])))
  in
  Util.qcheck ~count:300 "the canonical string equals its Printf oracle" netlist
    (fun nl -> Netlist.to_canonical_string nl = printf_canonical_string nl)

let random_canonical_test =
  let open QCheck2 in
  Util.qcheck ~count:100 "generated circuits hash as the Printf oracle does"
    Gen.(pair (int_bound 1_000_000) (int_range 1 80))
    (fun (seed, n_gates) ->
      let nl = Circuits.random ~n_inputs:4 ~n_gates (Rng.create seed) in
      Netlist.to_canonical_string nl = printf_canonical_string nl)

let suite =
  [
    ("eda.netlist.hash", [ canonical_oracle_test; random_canonical_test ]);
    ("eda.logic", logic_tests);
    ("eda.netlist.construction", construction_tests);
    ("eda.netlist.eval", eval_tests);
    ("eda.netlist.edit", edit_tests);
    ("eda.netlist.properties", property_tests);
  ]
