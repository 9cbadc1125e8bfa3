(* Tests of the benchmark's own metric derivations. *)

module D = Perfbench.Derive

let feq = Alcotest.float 1e-9

let test_tail_percentile () =
  let check n want =
    Alcotest.(check (option (float 0.))) (Printf.sprintf "n=%d" n) want (D.tail_percentile n)
  in
  check 19 None;
  check 20 (Some 50.);
  check 99 (Some 50.);
  check 100 (Some 90.);
  check 999 (Some 90.);
  check 1_000 (Some 99.);
  check 9_999 (Some 99.);
  check 10_000 (Some 99.9);
  check 99_999 (Some 99.9);
  check 100_000 (Some 99.99)

let test_percentile_sorted () =
  let a = Array.init 1000 (fun i -> i + 1) in
  Alcotest.(check int) "p50" 500 (D.percentile_sorted a 50.);
  Alcotest.(check int) "p99.9" 999 (D.percentile_sorted a 99.9);
  Alcotest.(check int) "p100" 1000 (D.percentile_sorted a 100.);
  Alcotest.(check int) "p0" 1 (D.percentile_sorted a 0.);
  Alcotest.(check int) "single" 7 (D.percentile_sorted [| 7 |] 99.9)

let test_median () =
  Alcotest.check feq "odd" 2. (D.median [ 3.; 1.; 2. ]);
  Alcotest.check feq "even" 2.5 (D.median [ 4.; 1.; 3.; 2. ])

(* 100 us bins from t=0: ten bins at 100 per bin, the crash at 1.05 ms,
   three bins below 80, one at 79, then back at 80. *)
let test_recovery () =
  let bins = [| 100; 100; 100; 100; 100; 100; 100; 100; 100; 100; 40; 0; 0; 79; 80; 100 |] in
  let r = D.recovery_ns ~bins ~bin_ns:100_000 ~t0_ns:0 ~crash_ns:1_050_000 ~pre_bins:10 ~fraction:0.8 in
  (* bin 14 starts at 1.4 ms: 350 us after the crash *)
  Alcotest.(check (option int)) "back at bin 14" (Some 350_000) r;
  let r = D.recovery_ns ~bins ~bin_ns:100_000 ~t0_ns:500_000 ~crash_ns:1_550_000 ~pre_bins:10 ~fraction:0.8 in
  Alcotest.(check (option int)) "offset origin" (Some 350_000) r;
  let flat = Array.make 16 100 in
  Alcotest.(check (option int)) "never fell" None
    (D.recovery_ns ~bins:flat ~bin_ns:100_000 ~t0_ns:0 ~crash_ns:1_050_000 ~pre_bins:10
       ~fraction:0.8);
  let dead = Array.append (Array.make 10 100) (Array.make 6 0) in
  Alcotest.(check (option int)) "never came back" None
    (D.recovery_ns ~bins:dead ~bin_ns:100_000 ~t0_ns:0 ~crash_ns:1_050_000 ~pre_bins:10
       ~fraction:0.8);
  Alcotest.(check (option int)) "crash in the first bin" None
    (D.recovery_ns ~bins ~bin_ns:100_000 ~t0_ns:0 ~crash_ns:50_000 ~pre_bins:10 ~fraction:0.8)

let test_failed_frac () =
  Alcotest.check feq "nothing failed" 0.
    (D.failed_frac ~attempted:1000 ~failed:0 ~shed:0 ~stranded:0);
  Alcotest.check feq "shed and stranded count" 0.015
    (D.failed_frac ~attempted:1000 ~failed:5 ~shed:8 ~stranded:2);
  Alcotest.check feq "nothing attempted" 0.
    (D.failed_frac ~attempted:0 ~failed:0 ~shed:0 ~stranded:0)

let test_per_op () =
  Alcotest.check feq "counter delta per op" 2.5 (D.per_op ~before:1_000 ~after:1_250 ~ops:100);
  Alcotest.check feq "no ops" 0. (D.per_op ~before:0 ~after:5 ~ops:0);
  Alcotest.check feq "ratio" 0.25 (D.ratio 1 4)

let () =
  Alcotest.run "perfbench"
    [
      ( "derive",
        [
          Alcotest.test_case "tail percentile per sample count" `Quick test_tail_percentile;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile_sorted;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "recovery time" `Quick test_recovery;
          Alcotest.test_case "failed_frac" `Quick test_failed_frac;
          Alcotest.test_case "per-op ratios" `Quick test_per_op;
        ] );
    ]
