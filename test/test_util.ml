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

let test_bits_basic () =
  let b = Bits.create 100 in
  Bits.add b 0;
  Bits.add b 63;
  Bits.add b 64;
  Bits.add b 99;
  Alcotest.(check bool) "mem 63" true (Bits.mem b 63);
  Alcotest.(check bool) "mem 64" true (Bits.mem b 64);
  Alcotest.(check bool) "not mem 1" false (Bits.mem b 1);
  Alcotest.(check int) "cardinal" 4 (Bits.cardinal b);
  Bits.remove b 63;
  Alcotest.(check bool) "removed" false (Bits.mem b 63);
  Alcotest.(check int) "choose smallest" 0 (Bits.choose b);
  Bits.clear b;
  Alcotest.(check bool) "empty after clear" true (Bits.is_empty b)

let prop_bits_model =
  QCheck.Test.make ~count:200 ~name:"bitset agrees with a list model"
    QCheck.(list (pair bool (int_bound 199)))
    (fun ops ->
      let b = Ascy_util.Bits.create 200 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Ascy_util.Bits.add b i;
            Hashtbl.replace model i ()
          end
          else begin
            Ascy_util.Bits.remove b i;
            Hashtbl.remove model i
          end)
        ops;
      Ascy_util.Bits.cardinal b = Hashtbl.length model
      && Hashtbl.fold (fun i () acc -> acc && Ascy_util.Bits.mem b i) model true)

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
    Alcotest.test_case "vec push/get/set" `Quick test_vec_push_get;
    Alcotest.test_case "vec sort" `Quick test_vec_sort;
    Alcotest.test_case "bits basic" `Quick test_bits_basic;
    QCheck_alcotest.to_alcotest prop_bits_model;
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
