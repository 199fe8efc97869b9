(* Umbrella-module and Report tests: the version string, plus the
   helpers the harnesses rely on. *)

open Stp_sweep

let check = Alcotest.(check bool)

let test_report_geomean () =
  let g = Report.geomean [ 2.; 8. ] in
  check "geomean 2,8 = 4" true (abs_float (g -. 4.) < 1e-9);
  check "empty" true (Report.geomean [] = 0.);
  check "zero clamped" true (Report.geomean [ 0.; 4. ] > 0.)

let test_report_table () =
  let s = Report.render_table ~header:[ "a"; "bb" ] [ [ "xxx"; "y" ] ] in
  check "aligned" true
    (s = "a    bb\n---  --\nxxx  y \n")

let test_version () = check "version" true (String.length version > 0)

let () =
  Alcotest.run "core"
    [
      ( "report",
        [
          Alcotest.test_case "geomean" `Quick test_report_geomean;
          Alcotest.test_case "table" `Quick test_report_table;
          Alcotest.test_case "version" `Quick test_version;
        ] );
    ]
