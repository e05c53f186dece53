(* Shared helpers for the test suites. *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  n = 0 || at 0

(* A golden file's text; tests run in the build copy of [test/]. *)
let golden name =
  In_channel.with_open_bin (Filename.concat "golden" name) In_channel.input_all

(* Run [f] and expect it to raise an exception satisfying [pred]. *)
let expect_exn name pred f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | _ -> Alcotest.fail "expected an exception"
      | exception e ->
        if not (pred e) then
          Alcotest.failf "unexpected exception %s" (Printexc.to_string e))

let qcheck ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ?print ~name gen prop)

(* Replace the first occurrence of [needle] in [hay]. *)
let replace_first hay needle replacement =
  let n = String.length needle and h = String.length hay in
  let rec at i =
    if i + n > h then None
    else if String.sub hay i n = needle then Some i
    else at (i + 1)
  in
  match at 0 with
  | None -> hay
  | Some i ->
    String.sub hay 0 i ^ replacement
    ^ String.sub hay (i + n) (h - i - n)
