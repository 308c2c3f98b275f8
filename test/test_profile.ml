let close ?(eps = 1e-9) expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "expected %.6f got %.6f" expected actual)
    true
    (Float.abs (expected -. actual) < eps)

let test_counts () =
  let p = Textsim.Profile.of_strings [ "ab" ] in
  (* trigrams of "ab": ##a #ab ab# b## *)
  Alcotest.(check int) "grams" 4 (Textsim.Profile.gram_count p);
  Alcotest.(check int) "total" 4 (Textsim.Profile.total p)

let test_accumulation () =
  let p = Textsim.Profile.of_strings [ "ab"; "ab" ] in
  Alcotest.(check int) "distinct unchanged" 4 (Textsim.Profile.gram_count p);
  Alcotest.(check int) "occurrences doubled" 8 (Textsim.Profile.total p)

let test_cosine_identical () =
  let a = Textsim.Profile.of_strings [ "hello world" ] in
  let b = Textsim.Profile.of_strings [ "hello world" ] in
  close 1.0 (Textsim.Profile.cosine a b)

let test_cosine_disjoint () =
  let a = Textsim.Profile.of_strings [ "aaa" ] in
  let b = Textsim.Profile.of_strings [ "zzz" ] in
  close 0.0 (Textsim.Profile.cosine a b)

let test_cosine_empty () =
  let a = Textsim.Profile.of_strings [] in
  let b = Textsim.Profile.of_strings [ "x" ] in
  close 0.0 (Textsim.Profile.cosine a b)

let test_cosine_symmetric () =
  let a = Textsim.Profile.of_strings [ "the shadow of the wind"; "ancient history" ] in
  let b = Textsim.Profile.of_strings [ "dance baby dance"; "midnight groove" ] in
  close (Textsim.Profile.cosine a b) (Textsim.Profile.cosine b a)

let test_distinguishes_vocabularies () =
  (* the property the instance matcher relies on: same-domain text is
     closer than cross-domain text *)
  let rng = Stats.Rng.create 5 in
  let books1 = List.map (fun b -> b.Workload.Corpus.book_title) (Workload.Corpus.books rng 50) in
  let books2 = List.map (fun b -> b.Workload.Corpus.book_title) (Workload.Corpus.books rng 50) in
  let albums = List.map (fun a -> a.Workload.Corpus.album_title) (Workload.Corpus.albums rng 50) in
  let pb1 = Textsim.Profile.of_strings books1 in
  let pb2 = Textsim.Profile.of_strings books2 in
  let pa = Textsim.Profile.of_strings albums in
  Alcotest.(check bool) "book-book > book-album" true
    (Textsim.Profile.cosine pb1 pb2 > Textsim.Profile.cosine pb1 pa)

let qcheck_cosine_range =
  let docs = QCheck.(list_of_size Gen.(0 -- 10) (string_gen_of_size Gen.(0 -- 10) Gen.printable)) in
  QCheck.Test.make ~name:"cosine within [0,1]" ~count:200 (QCheck.pair docs docs)
    (fun (d1, d2) ->
      let c = Textsim.Profile.cosine (Textsim.Profile.of_strings d1) (Textsim.Profile.of_strings d2) in
      c >= 0.0 && c <= 1.0 +. 1e-9)

let suite =
  [
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "accumulation" `Quick test_accumulation;
    Alcotest.test_case "cosine identical" `Quick test_cosine_identical;
    Alcotest.test_case "cosine disjoint" `Quick test_cosine_disjoint;
    Alcotest.test_case "cosine empty" `Quick test_cosine_empty;
    Alcotest.test_case "cosine symmetric" `Quick test_cosine_symmetric;
    Alcotest.test_case "distinguishes vocabularies" `Quick test_distinguishes_vocabularies;
    QCheck_alcotest.to_alcotest qcheck_cosine_range;
  ]
