(* Tests for the export check (test/exports): its scan, run on an
   in-memory tree, reports a dead export as "delete", one used only in
   its own module as "unexport", and nothing for a value some other
   file names or the allowlist keeps; and its doc check flags a
   backticked reference to a name no source file has. *)

module Scan = Export_scan

let t name f = Alcotest.test_case name `Quick f

let mli =
  {|(** A planted interface.  A doc comment naming val in_comment is not
    a declaration. *)
type t
val used_elsewhere : t -> int
val planted_unused : int
val only_in_own_ml : int -> int
val only_in_perfbench : unit -> unit
val allowlisted : string
external stub : int -> int = "ddf_stub"
val ( ** ) : int -> int -> int
module Sub : sig val planted_unused : int end
|}

let ml =
  {|let used_elsewhere _ = 1
let planted_unused = 2
let only_in_own_ml x = x + 1
let helper y = only_in_own_ml y
let only_in_perfbench () = ()
let allowlisted = "kept"
external stub : int -> int = "ddf_stub"
let ( ** ) a b = a * b
|}

let files =
  [
    ("lib/plant/plant.mli", mli);
    ("lib/plant/plant.ml", ml);
    ("bin/main.ml", "let () = print_int (Plant.used_elsewhere x + Plant.stub 1)");
    ("perfbench/replay.ml", "let () = Ddf.Plant.only_in_perfbench ()");
    ("test/test_plant.ml", "(* planted_unusedly is a different token *)");
  ]

let report findings =
  List.map
    (fun (f : Scan.finding) ->
      Printf.sprintf "%s %s: %s"
        (match f.verdict with Delete -> "delete" | Unexport -> "unexport")
        f.mli f.name)
    findings

let strings = Alcotest.(list string)

let suite =
  [
    ( "exports.scan",
      [
        t "dead, module-private and allowlisted values" (fun () ->
            Alcotest.check strings "findings"
              [
                "unexport lib/plant/plant.mli: only_in_own_ml";
                "delete lib/plant/plant.mli: planted_unused";
              ]
              (report
                 (Scan.scan ~files ~allow:[ "lib/plant/plant.mli allowlisted" ])));
        t "without the allowlist its entry is reported" (fun () ->
            Alcotest.check Alcotest.bool "allowlisted reported" true
              (List.mem "delete lib/plant/plant.mli: allowlisted"
                 (report (Scan.scan ~files ~allow:[]))));
        t "a name used only under perfbench counts as used" (fun () ->
            let without =
              List.filter (fun (p, _) -> p <> "perfbench/replay.ml") files
            in
            Alcotest.check Alcotest.bool "reported once perfbench is gone" true
              (List.mem "delete lib/plant/plant.mli: only_in_perfbench"
                 (report (Scan.scan ~files:without ~allow:[])));
            Alcotest.check Alcotest.bool "not reported with it" false
              (List.mem "delete lib/plant/plant.mli: only_in_perfbench"
                 (report (Scan.scan ~files ~allow:[]))));
        t "interfaces outside lib/*/ are out of scope" (fun () ->
            Alcotest.check strings "no findings" []
              (report
                 (Scan.scan ~allow:[]
                    ~files:
                      [
                        ("lib/core/sub/x.mli", "val nothing_calls_me : int");
                        ("bench/b.mli", "val nothing_calls_me : int");
                      ])));
        t "allowlist entries need a reason" (fun () ->
            Alcotest.check
              Alcotest.(result (list string) (list string))
              "parsed"
              (Ok [ "lib/a/a.mli x" ])
              (Scan.parse_allowlist
                 "# comment\n\nlib/a/a.mli x kept for the toplevel\n");
            Alcotest.check
              Alcotest.(result (list string) (list string))
              "no reason" (Error [ "lib/a/a.mli x" ])
              (Scan.parse_allowlist "lib/a/a.mli x\n"));
        t "doc references to names no source has" (fun () ->
            let docs =
              [
                ( "DESIGN.md",
                  "`Plant.used_elsewhere` and `Plant.never_defined_anywhere`,\n\
                   not `a.b`\n\
                   nor `Plant.gone x`.\n\
                   ```\n\
                   `Plant.in_a_fence`\n\
                   ```\n" );
              ]
            in
            Alcotest.check
              Alcotest.(list (pair string string))
              "stale" [ ("DESIGN.md", "Plant.never_defined_anywhere") ]
              (Scan.stale_doc_refs ~files ~docs));
        t "fsync and truncation calls only under lib/disk/" (fun () ->
            let io =
              "(* Unix.fsync in a comment is not a call *)\n\
               let f fd = Unix.fsync fd; MyUnix.fsync fd\n\
               let g p = Unix.truncate p 0; Unix.ftruncate_not x\n"
            in
            Alcotest.check
              Alcotest.(list (pair string string))
              "stray calls"
              [ ("lib/plant/plant.ml", "Unix.fsync");
                ("lib/plant/plant.ml", "Unix.truncate") ]
              (Scan.stray_durability_calls
                 ~files:
                   [ ("lib/plant/plant.ml", io); ("lib/disk/disk.ml", io);
                     ("test/t.ml", io) ]));
      ] );
  ]
