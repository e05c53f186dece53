(* Tests for the observability library: span nesting and balance,
   counter aggregation, the sinks, and a golden check that a small
   engine run's Chrome-trace export is valid JSON carrying one complete
   duration event per executed invocation. *)

open Ddf
module Obs = Ddf_obs.Obs
module Sinks = Ddf_obs.Sinks
module Metrics = Ddf_obs.Metrics

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser: just enough to validate trace exports        *)
(* ------------------------------------------------------------------ *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Json_error of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail m = raise (Json_error (Printf.sprintf "%s at %d" m !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "bad unicode escape";
          pos := !pos + 4;
          Buffer.add_char buf '?';
          go ()
        | Some c -> Buffer.add_char buf c; advance (); go ()
        | None -> fail "unterminated escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Jnum f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Jobj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((key, v) :: acc)
          | Some '}' -> advance (); Jobj (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Jarr [] end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elems (v :: acc)
          | Some ']' -> advance (); Jarr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elems []
      end
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> parse_number ()
    | None -> fail "empty input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Jobj fields -> List.assoc_opt key fields
  | _ -> None

let str_member key j =
  match member key j with Some (Jstr s) -> Some s | _ -> None

(* run [f] with a recording sink installed, returning (result, events) *)
let recording f =
  let sink, events = Sinks.memory () in
  Obs.set_sink sink;
  let finally () = Obs.clear_sink () in
  let x = Fun.protect ~finally f in
  (x, events ())

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let shape ev =
  ( (match ev.Obs.kind with
    | Obs.Begin -> "B"
    | Obs.End -> "E"
    | Obs.Complete _ -> "X"
    | Obs.Instant -> "i"
    | Obs.Sample _ -> "C"),
    ev.Obs.name )

let span_tests =
  [
    t "with_span nests and balances" (fun () ->
        let (), events =
          recording (fun () ->
              Obs.with_span "outer" (fun () ->
                  Obs.with_span "inner" (fun () -> ())))
        in
        check
          Alcotest.(list (pair string string))
          "event sequence"
          [ ("B", "outer"); ("B", "inner"); ("E", "inner"); ("E", "outer") ]
          (List.map shape events));
    t "with_span is balanced when the thunk raises" (fun () ->
        let (), events =
          recording (fun () ->
              try Obs.with_span "risky" (fun () -> raise Exit)
              with Exit -> ())
        in
        check
          Alcotest.(list (pair string string))
          "end emitted despite the exception"
          [ ("B", "risky"); ("E", "risky") ]
          (List.map shape events));
    t "timestamps are monotone" (fun () ->
        let (), events =
          recording (fun () ->
              Obs.with_span "a" (fun () -> Obs.instant "b"))
        in
        let ts = List.map (fun e -> e.Obs.ts_us) events in
        check Alcotest.bool "sorted" true (List.sort compare ts = ts));
    t "no sink means no events and plain results" (fun () ->
        Obs.clear_sink ();
        check Alcotest.bool "disabled" false (Obs.enabled ());
        check Alcotest.int "with_span is transparent" 42
          (Obs.with_span "nothing" (fun () -> 42)));
  ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let metrics_tests =
  [
    t "counters aggregate" (fun () ->
        let reg = Metrics.create () in
        let c = Metrics.counter ~registry:reg "x" in
        Metrics.incr c;
        Metrics.incr ~by:4 c;
        check Alcotest.int "count" 5 (Metrics.count c);
        check Alcotest.bool "same handle on re-lookup" true
          (Metrics.counter ~registry:reg "x" == c));
    t "histograms record n/mean/min/max" (fun () ->
        let reg = Metrics.create () in
        let h = Metrics.histogram ~registry:reg "d" in
        List.iter (fun v -> Metrics.observe h v) [ 1.0; 3.0; 8.0 ];
        (match Metrics.snapshot reg with
        | [ Metrics.Histogram ("d", hs) ] ->
          check Alcotest.int "n" 3 hs.Metrics.hs_n;
          check (Alcotest.float 1e-9) "mean" 4.0 (Metrics.hs_mean hs);
          check (Alcotest.float 1e-9) "min" 1.0 hs.Metrics.hs_min;
          check (Alcotest.float 1e-9) "max" 8.0 hs.Metrics.hs_max
        | _ -> Alcotest.fail "unexpected snapshot"));
    t "empty histograms appear in snapshots with n=0" (fun () ->
        let reg = Metrics.create () in
        let _ = Metrics.histogram ~registry:reg "idle" in
        (match Metrics.snapshot reg with
        | [ Metrics.Histogram ("idle", hs) ] ->
          check Alcotest.int "n" 0 hs.Metrics.hs_n;
          check (Alcotest.float 1e-9) "min zeroed" 0.0 hs.Metrics.hs_min
        | _ -> Alcotest.fail "empty histogram omitted");
        match parse_json (Metrics.to_json reg) with
        | Jobj [ ("idle", Jobj fields) ] ->
          check Alcotest.bool "n = 0 in json" true
            (List.assoc_opt "n" fields = Some (Jnum 0.0))
        | _ -> Alcotest.fail "empty histogram missing from to_json");
    t "reset zeroes in place, handles stay valid" (fun () ->
        let reg = Metrics.create () in
        let c = Metrics.counter ~registry:reg "x" in
        Metrics.incr ~by:7 c;
        Metrics.reset reg;
        check Alcotest.int "zeroed" 0 (Metrics.count c);
        Metrics.incr c;
        check Alcotest.int "still counts" 1 (Metrics.count c));
    t "to_json is valid JSON" (fun () ->
        let reg = Metrics.create () in
        Metrics.incr ~by:3 (Metrics.counter ~registry:reg "runs");
        Metrics.set (Metrics.gauge ~registry:reg "load") 0.5;
        Metrics.observe (Metrics.histogram ~registry:reg "depth") 4.0;
        match parse_json (Metrics.to_json reg) with
        | Jobj fields ->
          check Alcotest.int "three metrics" 3 (List.length fields);
          check Alcotest.bool "counter value" true
            (List.assoc "runs" fields = Jnum 3.0)
        | _ -> Alcotest.fail "not an object");
    t "engine counters advance across a run" (fun () ->
        let before =
          Metrics.count (Metrics.counter "engine.executed")
        in
        let w, f, bindings = Test_exec.fig5_setup () in
        let run =
          Engine.execute (Workspace.ctx w) f.Standard_flows.f5_graph ~bindings
        in
        check Alcotest.int "engine.executed grew by the run's stats"
          (before + run.Engine.stats.Engine.executed)
          (Metrics.count (Metrics.counter "engine.executed")));
  ]

(* ------------------------------------------------------------------ *)
(* Chrome-trace export of an engine run (the golden test)              *)
(* ------------------------------------------------------------------ *)

let engine_trace () =
  recording (fun () ->
      let w, f, bindings = Test_exec.fig5_setup () in
      let ctx = Workspace.ctx w in
      let r1 = Engine.execute ctx f.Standard_flows.f5_graph ~bindings in
      let r2 = Engine.execute ctx f.Standard_flows.f5_graph ~bindings in
      (r1, r2))

let chrome_tests =
  [
    t "chrome export is valid JSON with one X event per execution" (fun () ->
        let (r1, r2), events = engine_trace () in
        let doc = parse_json (Sinks.chrome_json_of_events events) in
        let evs =
          match member "traceEvents" doc with
          | Some (Jarr l) -> l
          | _ -> Alcotest.fail "no traceEvents array"
        in
        let engine_x =
          List.filter
            (fun e ->
              str_member "ph" e = Some "X" && str_member "cat" e = Some "engine")
            evs
        in
        let executions =
          r1.Engine.stats.Engine.executed + r1.Engine.stats.Engine.composed
        in
        check Alcotest.int "one complete duration event per execution"
          executions (List.length engine_x);
        (* every X event names its task entity and kind *)
        List.iter
          (fun e ->
            let kind =
              Option.bind (member "args" e) (str_member "kind")
            in
            check Alcotest.bool "kind is executed or composed" true
              (kind = Some "executed" || kind = Some "composed"))
          engine_x;
        let names = List.filter_map (str_member "name") engine_x in
        check Alcotest.bool "verification task traced" true
          (List.mem "verification" names);
        (* memo hits of the second run are instants tagged kind=memo *)
        let memos =
          List.filter
            (fun e ->
              str_member "ph" e = Some "i"
              && Option.bind (member "args" e) (str_member "kind")
                 = Some "memo")
            evs
        in
        check Alcotest.int "memo hits distinguishable from executions"
          r2.Engine.stats.Engine.memo_hits (List.length memos));
    t "begin/end events balance like a bracket language" (fun () ->
        let _, events = engine_trace () in
        let depth =
          List.fold_left
            (fun d e ->
              match e.Obs.kind with
              | Obs.Begin -> d + 1
              | Obs.End ->
                check Alcotest.bool "never negative" true (d > 0);
                d - 1
              | _ -> d)
            0 events
        in
        check Alcotest.int "balanced" 0 depth);
    t "tracing does not perturb the run" (fun () ->
        let (r1, _), _ = engine_trace () in
        let w, f, bindings = Test_exec.fig5_setup () in
        let r =
          Engine.execute (Workspace.ctx w) f.Standard_flows.f5_graph ~bindings
        in
        check Alcotest.int "same executed count"
          r.Engine.stats.Engine.executed r1.Engine.stats.Engine.executed;
        check Alcotest.bool "same assignment" true
          (r.Engine.assignment = r1.Engine.assignment));
  ]

(* ------------------------------------------------------------------ *)
(* Schedule lanes and the other sinks                                  *)
(* ------------------------------------------------------------------ *)

let sink_tests =
  [
    t "schedule renders as per-machine chrome lanes" (fun () ->
        let w, f, bindings = Test_exec.fig5_setup () in
        let run =
          Engine.execute (Workspace.ctx w) f.Standard_flows.f5_graph ~bindings
        in
        let s =
          Parallel.schedule f.Standard_flows.f5_graph ~costs:run.Engine.costs
            ~machines:2
        in
        let doc = parse_json (Parallel.chrome_trace_of_schedule s) in
        let evs =
          match member "traceEvents" doc with
          | Some (Jarr l) -> l
          | _ -> Alcotest.fail "no traceEvents array"
        in
        let xs = List.filter (fun e -> str_member "ph" e = Some "X") evs in
        check Alcotest.int "one lane entry per scheduled invocation"
          (List.length s.Parallel.entries)
          (List.length xs);
        List.iter
          (fun e ->
            match member "tid" e with
            | Some (Jnum tid) ->
              check Alcotest.bool "lane within machine pool" true
                (tid >= 0.0 && tid < 2.0)
            | _ -> Alcotest.fail "no tid")
          xs;
        let lane_labels =
          List.filter (fun e -> str_member "ph" e = Some "M") evs
        in
        check Alcotest.int "machine lane names" 2 (List.length lane_labels));
    t "jsonl sink writes one valid JSON object per line" (fun () ->
        let path = Filename.temp_file "ddf_obs" ".jsonl" in
        Obs.set_sink (Sinks.to_file ~format:Sinks.Jsonl path);
        Obs.with_span ~cat:"test" "line" (fun () ->
            Obs.instant ~cat:"test" ~attrs:[ ("k", Obs.Str "v\"quoted\"") ]
              "escape me");
        Obs.clear_sink ();
        let ic = open_in path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic);
        Sys.remove path;
        List.iter
          (fun line ->
            match parse_json line with
            | Jobj _ -> ()
            | _ -> Alcotest.fail "line is not an object")
          !lines;
        (* span Begins also yield flow records; count the main events *)
        let mains =
          List.filter
            (fun line ->
              match parse_json line with
              | j -> str_member "cat" j <> Some "trace")
            !lines
        in
        check Alcotest.int "three events" 3 (List.length mains));
    t "text sink produces a line per event" (fun () ->
        let path = Filename.temp_file "ddf_obs" ".txt" in
        Obs.set_sink (Sinks.to_file ~format:Sinks.Text path);
        Obs.with_span "a" (fun () -> Obs.instant "b");
        Obs.clear_sink ();
        let ic = open_in path in
        let count = ref 0 in
        (try
           while true do
             ignore (input_line ic);
             incr count
           done
         with End_of_file -> close_in ic);
        Sys.remove path;
        check Alcotest.int "three lines" 3 !count);
  ]

(* [domains] domains each add [k] to a counter and observe [k] values
   of 1.0; the first also observes [k - 1] values of 1000.0 and the
   others [k] each.  Nothing may be lost: the counter reads exactly
   domains * k, the histogram's n the observation count, and its
   buckets hold every observation, so the median lands among the
   1.0s (one more of them than of the 1000.0s) and the 99th
   percentile among the 1000.0s. *)
let domains_lose_nothing (domains, k) =
  let reg = Metrics.create () in
  let c = Metrics.counter ~registry:reg "c" in
  let h = Metrics.histogram ~registry:reg "h" in
  let work i () =
    for _ = 1 to k do
      Metrics.incr c;
      Metrics.observe h 1.0
    done;
    for _ = 1 to (if i = 0 then k - 1 else k) do
      Metrics.observe h 1000.0
    done
  in
  List.iter Domain.join (List.init domains (fun i -> Domain.spawn (work i)));
  let n = (2 * domains * k) - 1 in
  match Metrics.snapshot reg with
  | [ Metrics.Counter ("c", count); Metrics.Histogram ("h", hs) ] ->
    count = domains * k
    && hs.Metrics.hs_n = n
    && hs.Metrics.hs_sum = float_of_int ((domains * k) + (1000 * ((domains * k) - 1)))
    && hs.Metrics.hs_p50 = 1.0
    && hs.Metrics.hs_p99 > 900.0
  | _ -> false

let domain_tests =
  [
    Alcotest.test_case "minor_collections reads quick_stat's count" `Quick
      (fun () ->
        let before = Metrics.minor_collections () in
        Gc.minor ();
        let n = Metrics.minor_collections () in
        check Alcotest.int "as quick_stat" (Gc.quick_stat ()).Gc.minor_collections n;
        check Alcotest.bool "counts the collection" true (n > before));
    Util.qcheck ~count:4 "N domains x K updates lose none"
      ~print:(fun (d, k) -> Printf.sprintf "%d domains x %d" d k)
      QCheck2.Gen.(pair (int_range 2 4) (int_range 1_000 50_000))
      domains_lose_nothing;
  ]

let suite =
  [
    ("obs.spans", span_tests);
    ("obs.metrics", metrics_tests);
    ("obs.metrics.domains", domain_tests);
    ("obs.chrome", chrome_tests);
    ("obs.sinks", sink_tests);
  ]
