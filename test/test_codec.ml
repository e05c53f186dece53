(* The payload codec: every value kind round-trips its flat text, the
   text is the one the tree printer would write, a tree and a [Text]
   leaf read to the same value, and hostile install bodies raise only
   the typed errors. *)

open Ddf
module S = Ddf_persist.Sexp
module Codec = Ddf_persist.Codec

(* Strings the printer must quote or escape. *)
let tricky =
  [| "plain"; "with space"; "quo\"te"; "back\\slash"; "new\nline"; "tab\there";
     "(parens)"; ""; ";semi"; "cr\rhere"; "-12"; "0x1p+1" |]

let kinds = 19

(* One value of kind [kind], its contents drawn from [seed]. *)
let value_of_kind kind seed =
  let rng = Eda.Rng.create seed in
  let pick a = a.(Eda.Rng.int rng (Array.length a)) in
  let comb =
    Eda.Circuits.random ~n_inputs:(2 + Eda.Rng.int rng 4)
      ~n_gates:(2 + Eda.Rng.int rng 14) rng
  in
  (* a sequential one, with flops, where the kind allows *)
  let nl = if seed mod 5 = 0 then Eda.Circuits.lfsr4 () else comb in
  let stim = Eda.Stimuli.for_netlist comb rng in
  let model =
    Eda.Device_model.create ~model_name:(pick tricky)
      ~process_nm:(10 + Eda.Rng.int rng 200) ~vdd_mv:(500 + Eda.Rng.int rng 3000)
      ~vth_mv:(100 + Eda.Rng.int rng 300)
      ~delay_scale:(0.1 +. (3.0 *. Eda.Rng.float rng))
      ~power_scale:(0.1 +. (3.0 *. Eda.Rng.float rng))
  in
  let perf = Eda.Performance.analyze ~model comb stim in
  let layout = Eda.Layout.place comb in
  let seg () =
    let x = Eda.Rng.int rng 100 - 50 and y = Eda.Rng.int rng 100 in
    if Eda.Rng.int rng 2 = 0 then Eda.Layout.segment x y (x + 7) y
    else Eda.Layout.segment x y x (y - 3)
  in
  match kind with
  | 0 -> Value.Blob { blob_kind = pick tricky; text = pick tricky ^ pick tricky }
  | 1 -> Value.Netlist nl
  | 2 -> Value.Layout layout
  | 3 -> Value.Device_models model
  | 4 -> Value.Stimuli stim
  | 5 -> Value.Circuit { Value.c_models = model; c_netlist = nl }
  | 6 -> Value.Performance perf
  | 7 ->
    let other = Eda.Circuits.random ~n_inputs:3 ~n_gates:5 rng in
    Value.Verification
      { (Eda.Lvs.compare_netlists comb other) with
        Eda.Lvs.mismatches =
          [ Eda.Lvs.Port_sets_differ (pick tricky); Eda.Lvs.Gate_count (3, -4);
            Eda.Lvs.Unmatched_gate (pick tricky);
            Eda.Lvs.Signature_conflict (pick tricky) ];
        gate_map = [ (pick tricky, pick tricky) ] }
  | 8 ->
    let p = Eda.Plot.of_performance perf in
    Value.Plot { p with Eda.Plot.title = pick tricky; nets_plotted = [ pick tricky ] }
  | 9 ->
    let _, stats = Eda.Extract.run layout in
    Value.Extraction_statistics
      { stats with Eda.Extract.estimated_cap_ff = 1e6 *. Eda.Rng.float rng }
  | 10 -> Value.Transistor_view (Eda.Transistor.of_netlist comb)
  | 11 ->
    Value.Sim_options
      { Value.settle_ps = Eda.Rng.int rng 10_000; plot_width = Eda.Rng.int rng 200 }
  | 12 -> Value.Placement_options { Value.layout_suffix = pick tricky }
  | 13 ->
    Value.Optimizer_options
      { Value.budget = Eda.Rng.int rng 1000;
        objective =
          { Eda.Optimize.delay_weight = Eda.Rng.float rng -. 0.5;
            power_weight = 1.0 /. 3.0 } }
  | 14 -> Value.Tool (Value.Builtin (pick tricky))
  | 15 ->
    Value.Tool
      (Value.Scripted_netlist_editor
         (Eda.Edit_script.create ~name:(pick tricky)
            [ Eda.Edit_script.Rename (pick tricky);
              Eda.Edit_script.Add_gate
                { gname = "g_new"; op = Eda.Logic.Nand; inputs = [ "a"; "b" ];
                  output = "y"; drive = 2 };
              Eda.Edit_script.Remove_gate "g1";
              Eda.Edit_script.Set_drive ("g2", 4);
              Eda.Edit_script.Insert_buffer { net = "n1"; gname = "buf1" } ]))
  | 16 ->
    Value.Tool
      (Value.Scripted_layout_editor
         [ Eda.Layout.Move_cell (pick tricky, -3, 5);
           Eda.Layout.Delete_cell "c1";
           Eda.Layout.Rename_layout (pick tricky);
           Eda.Layout.Add_segment (seg ());
           Eda.Layout.Delete_segment (seg ()) ])
  | 17 ->
    Value.Tool
      (Value.Scripted_model_editor
         [ Eda.Device_model.Rename (pick tricky); Eda.Device_model.Set_vdd 900;
           Eda.Device_model.Set_vth (-1);
           Eda.Device_model.Scale_delay (2.0 *. Eda.Rng.float rng);
           Eda.Device_model.Scale_power 1e-300 ])
  | _ -> Value.Tool (Value.Compiled_simulator (Eda.Sim_compiled.compile nl))

let gen_value =
  QCheck2.Gen.(
    map (fun (kind, seed) -> value_of_kind kind seed)
      (pair (int_bound (kinds - 1)) (int_bound 1_000_000)))

let print_value v = Codec.value_to_text v

let same a b = Value.hash a = Value.hash b

(* The value's install body, its text replaced by [text]: the value
   bytes travel as they are. *)
let install_body text =
  Ddf_wire.Wire.request_to_binary_string
    (Ddf_wire.Wire.Install
       { entity = "stimuli"; label = "l"; keywords = []; value = S.Text text })

(* A typed refusal at decode or at evaluation, or a value: nothing
   else may come out of a hostile body. *)
let survives body =
  match Ddf_wire.Wire.request_of_binary_string body with
  | exception Ddf_wire.Wire.Wire_error _ -> true
  | Ddf_wire.Wire.Install { value; _ } -> (
    match Codec.value_of_sexp value with
    | _ -> true
    | exception Codec.Codec_error _ -> true)
  | _ -> true

type damage = Truncate of int | Flip of int * char | Nest of int

let gen_damage =
  QCheck2.Gen.(
    oneof
      [ map (fun k -> Truncate k) nat;
        map2
          (fun p c -> Flip (p, c))
          nat
          (oneofl [ '('; ')'; '"'; '\\'; ' '; ';'; '\n'; '0'; '9'; '-'; 'x'; '\000' ]);
        map (fun d -> Nest d) (oneofl [ 1; S.max_depth - 2; S.max_depth; 100_000 ]) ])

let damage text = function
  | Truncate k -> String.sub text 0 (k mod (String.length text + 1))
  | Flip (p, c) ->
    let b = Bytes.of_string text in
    if Bytes.length b > 0 then Bytes.set b (p mod Bytes.length b) c;
    Bytes.to_string b
  | Nest d -> String.make d '(' ^ text ^ String.make d ')'

let print_damage = function
  | Truncate k -> Printf.sprintf "truncate %d" k
  | Flip (p, c) -> Printf.sprintf "flip %d to %C" p c
  | Nest d -> Printf.sprintf "nest %d" d

let props =
  [
    Util.qcheck ~count:400 "every value kind round-trips its text"
      ~print:print_value gen_value (fun v ->
        same v (Codec.value_of_sexp (Codec.value_to_sexp v)));
    Util.qcheck ~count:200 "the flat text is the tree printer's" ~print:print_value
      gen_value (fun v ->
        let text = Codec.value_to_text v in
        S.to_string ~pretty:false (S.of_string text) = text);
    Util.qcheck ~count:200 "a tree and a Text leaf read to the same value"
      ~print:print_value gen_value (fun v ->
        let text = Codec.value_to_text v in
        let tree = S.of_string text in
        same v (Codec.value_of_sexp tree)
        && same v (Codec.value_of_sexp (S.Text (S.to_string ~pretty:true tree))));
    Util.qcheck ~count:500 "hostile install bodies raise only typed errors"
      ~print:(fun (v, ds) ->
        print_value v ^ " / " ^ String.concat "; " (List.map print_damage ds))
      QCheck2.Gen.(pair gen_value (list_size (int_range 1 3) gen_damage))
      (fun (v, ds) ->
        let text = List.fold_left damage (Codec.value_to_text v) ds in
        let body = install_body text in
        survives body
        && List.for_all
             (fun k -> survives (String.sub body 0 k))
             [ String.length body / 2; String.length body - 1 ]);
    Alcotest.test_case "every kind is drawn" `Quick (fun () ->
        for kind = 0 to kinds - 1 do
          let v = value_of_kind kind 7 in
          if not (same v (Codec.value_of_text (Codec.value_to_text v))) then
            Alcotest.failf "kind %d: %s" kind (Value.kind_name v)
        done);
    Alcotest.test_case "fields read in any order, first one wins" `Quick
      (fun () ->
        let v =
          Codec.value_of_text
            "(plot ignored (nets a b) (title t) (rendering r) (title other) (x y))"
        in
        Alcotest.(check string) "plot" (Value.hash v)
          (Value.hash
             (Value.Plot { Eda.Plot.title = "t"; rendering = "r"; nets_plotted = [ "a"; "b" ] })));
    Alcotest.test_case "malformed values are Codec_error" `Quick (fun () ->
        List.iter
          (fun text ->
            match Codec.value_of_text text with
            | _ -> Alcotest.failf "%S read" text
            | exception Codec.Codec_error _ -> ())
          [ ""; "("; "(netlist"; "(frob)"; "()"; "(blob a b c)"; "(blob a b) x";
            "(sim_options 1 x)"; "(plot (title t))"; "atom"; "((netlist))" ]);
  ]

let suite = [ ("persist.codec", props) ]
