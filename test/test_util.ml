(* Unit + property tests for the ascy_util substrate. *)

open Ascy_util

let test_xorshift_determinism () =
  let a = Xorshift.create 5 and b = Xorshift.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same seed, same stream" (Xorshift.next a) (Xorshift.next b)
  done

let test_xorshift_range () =
  let r = Xorshift.create 9 in
  for _ = 1 to 1000 do
    let x = Xorshift.below r 17 in
    Alcotest.(check bool) "below in range" true (x >= 0 && x < 17)
  done

let test_xorshift_below_determinism () =
  let a = Xorshift.create 31 and b = Xorshift.create 31 in
  for _ = 1 to 500 do
    Alcotest.(check int) "below: same seed, same stream" (Xorshift.below a 1000)
      (Xorshift.below b 1000)
  done

(* Rejection sampling must stay in range even for bounds where
   [next mod n] is badly biased (n close to max_int). *)
let test_xorshift_below_large_n () =
  let r = Xorshift.create 13 in
  let n = (max_int / 2) + 3 in
  for _ = 1 to 200 do
    let x = Xorshift.below r n in
    Alcotest.(check bool) "large-n below in range" true (x >= 0 && x < n)
  done;
  Alcotest.check_raises "n = 0 rejected" (Invalid_argument "Xorshift.below: n must be positive")
    (fun () -> ignore (Xorshift.below r 0))

let test_xorshift_below_roughly_uniform () =
  let r = Xorshift.create 77 in
  let buckets = Array.make 7 0 in
  let n = 70_000 in
  for _ = 1 to n do
    let x = Xorshift.below r 7 in
    buckets.(x) <- buckets.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d count %d within 10%% of %d" i c (n / 7))
        true
        (abs (c - (n / 7)) < n / 70))
    buckets

(* The stream itself, pinned: the first draws of a few seeds, both
   power-of-two bounds (a mask) and other bounds (rejection sampling).
   Workload scripts, randomized schedules and golden results are all
   functions of this stream. *)
let test_xorshift_pinned_stream () =
  let draws seed n =
    let r = Xorshift.create seed in
    List.init 6 (fun _ -> Xorshift.below r n)
  in
  let pin seed n expected =
    Alcotest.(check (list int)) (Printf.sprintf "seed %d, below %d" seed n) expected (draws seed n)
  in
  pin 0 2 [ 0; 1; 0; 0; 0; 0 ];
  pin 0 64 [ 16; 21; 28; 34; 4; 20 ];
  pin 0 3 [ 2; 0; 0; 2; 1; 2 ];
  pin 0 1000 [ 672; 501; 556; 26; 924; 820 ];
  pin 1 64 [ 51; 30; 9; 51; 22; 49 ];
  pin 1 (1 lsl 40)
    [ 489377500083; 879829206430; 1036443450249; 665956224435; 211064255254; 163865544113 ];
  pin 1 10 [ 9; 0; 3; 7; 2; 7 ];
  pin 42 64 [ 60; 14; 7; 11; 30; 43 ];
  pin 42 10 [ 2; 8; 5; 1; 8; 5 ];
  pin 42 1000 [ 972; 518; 735; 771; 78; 955 ];
  let r = Xorshift.create 7 in
  let a = Xorshift.next r in
  let b = Xorshift.next r in
  Alcotest.(check (list int)) "seed 7, next" [ 834027085161119621; 2586368356751035403 ] [ a; b ]

(* A draw computes on unboxed words: no allocation per call. *)
let test_xorshift_no_alloc () =
  let r = Xorshift.create 3 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Xorshift.below r 1000 + Xorshift.below r 64
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "20,000 draws allocate %.0f minor words (sum %d)" words !acc)
    true (words < 100.)

let test_vec_push_get () =
  let v = Vec.create 0 in
  for i = 0 to 999 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 1000 (Vec.length v);
  Alcotest.(check int) "get 37" (37 * 37) (Vec.get v 37);
  Vec.set v 5 42;
  Alcotest.(check int) "set/get" 42 (Vec.get v 5)

let test_vec_sort () =
  let v = Vec.create 0 in
  List.iter (Vec.push v) [ 5; 1; 4; 2; 3 ];
  Vec.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (Array.to_list (Vec.to_array v))

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add h (float_of_int i)
  done;
  Alcotest.(check (float 0.001)) "p50" 50.0 (Histogram.percentile h 50.0);
  Alcotest.(check (float 0.001)) "p99" 99.0 (Histogram.percentile h 99.0);
  Alcotest.(check (float 0.001)) "p1" 1.0 (Histogram.percentile h 1.0);
  Alcotest.(check (float 0.001)) "mean" 50.5 (Histogram.mean h)

let test_histogram_nearest_rank () =
  (* nearest-rank on a known 10-sample set *)
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 9.0; 1.0; 7.0; 3.0; 5.0; 10.0; 2.0; 8.0; 4.0; 6.0 ];
  List.iter
    (fun (p, want) ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "p%.0f" p) want (Histogram.percentile h p))
    [ (1.0, 1.0); (25.0, 3.0); (50.0, 5.0); (75.0, 8.0); (99.0, 10.0); (100.0, 10.0) ]

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Histogram.mean h);
  Alcotest.(check (float 0.0)) "percentile" 0.0 (Histogram.percentile h 50.0);
  Alcotest.(check (float 0.0)) "summary" 0.0 (Histogram.summary h).(2)

let test_histogram_add_after_percentile () =
  (* the lazy sort must be invalidated by later adds *)
  let h = Histogram.create () in
  Histogram.add h 10.0;
  Alcotest.(check (float 0.0)) "p50 of {10}" 10.0 (Histogram.percentile h 50.0);
  Histogram.add h 1.0;
  Histogram.add h 2.0;
  Alcotest.(check (float 0.0)) "p50 re-sorted" 2.0 (Histogram.percentile h 50.0);
  Alcotest.(check (float 0.0)) "p1 re-sorted" 1.0 (Histogram.percentile h 1.0)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 1.0; 2.0 ];
  List.iter (Histogram.add b) [ 3.0; 4.0 ];
  let m = Histogram.merge a b in
  Alcotest.(check bool) "merge returns target" true (m == a);
  Alcotest.(check int) "merged count" 4 (Histogram.count a);
  Alcotest.(check int) "source untouched" 2 (Histogram.count b);
  Alcotest.(check (float 0.0)) "merged p99" 4.0 (Histogram.percentile a 99.0);
  let e = Histogram.create () in
  ignore (Histogram.merge a e);
  Alcotest.(check int) "merge with empty is no-op" 4 (Histogram.count a);
  ignore (Histogram.merge a a);
  Alcotest.(check int) "self-merge is a no-op" 4 (Histogram.count a);
  Alcotest.(check (float 0.0)) "mean stable after self-merge" 2.5 (Histogram.mean a)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("int", Json.Int 42);
        ("neg", Json.Int (-7));
        ("float", Json.Float 3.25);
        ("tiny", Json.Float 1.0000000000000002e-9);
        ("str", Json.String "a \"quoted\"\n\ttab\\slash");
        ("null", Json.Null);
        ("flag", Json.Bool false);
        ("list", Json.List [ Json.Int 1; Json.Obj [ ("k", Json.Bool true) ]; Json.List [] ]);
        ("empty", Json.Obj []);
      ]
  in
  Alcotest.(check bool) "compact round-trip" true (Json.of_string (Json.to_string v) = v);
  Alcotest.(check bool) "pretty round-trip" true (Json.of_string (Json.to_string ~indent:2 v) = v)

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed input: %s" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let test_json_to_file_nested () =
  let root = Filename.temp_dir "json_to_file" "" in
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let path = Filename.concat dir "out.json" in
  let v = Json.Obj [ ("k", Json.List [ Json.Int 1; Json.Null ]) ] in
  Json.to_file path v;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "pretty text + newline" (Json.to_string ~indent:1 v ^ "\n") text;
  Alcotest.(check bool) "reads back" true (Json.of_string text = v);
  Sys.remove path;
  List.iter Sys.rmdir [ dir; Filename.dirname dir; root ]

let prop_histogram_bounds =
  QCheck.Test.make ~count:100 ~name:"percentiles are within sample bounds"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (float_bound_exclusive 1000.0))
    (fun xs ->
      let h = Ascy_util.Histogram.create () in
      List.iter (Ascy_util.Histogram.add h) xs;
      let lo = List.fold_left min infinity xs and hi = List.fold_left max neg_infinity xs in
      List.for_all
        (fun p ->
          let v = Ascy_util.Histogram.percentile h p in
          v >= lo && v <= hi)
        [ 1.0; 25.0; 50.0; 75.0; 99.0 ])

let suite =
  [
    Alcotest.test_case "xorshift determinism" `Quick test_xorshift_determinism;
    Alcotest.test_case "xorshift range" `Quick test_xorshift_range;
    Alcotest.test_case "xorshift below determinism" `Quick test_xorshift_below_determinism;
    Alcotest.test_case "xorshift below large n (rejection)" `Quick test_xorshift_below_large_n;
    Alcotest.test_case "xorshift below uniformity" `Quick test_xorshift_below_roughly_uniform;
    Alcotest.test_case "xorshift pinned stream" `Quick test_xorshift_pinned_stream;
    Alcotest.test_case "xorshift draws allocate nothing" `Quick test_xorshift_no_alloc;
    Alcotest.test_case "vec push/get/set" `Quick test_vec_push_get;
    Alcotest.test_case "vec sort" `Quick test_vec_sort;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram nearest-rank" `Quick test_histogram_nearest_rank;
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram add after percentile" `Quick test_histogram_add_after_percentile;
    Alcotest.test_case "histogram merge (incl. self/empty)" `Quick test_histogram_merge;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json to_file creates parent dirs" `Quick test_json_to_file_nested;
    QCheck_alcotest.to_alcotest prop_histogram_bounds;
  ]
