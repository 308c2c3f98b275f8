(* Filter a bench/main.exe report down to its figure sections and its
   degraded-work count.  A section opens with a rule of '=' over a
   "= title =" line; the observability section and the closing timing
   line change from run to run, so they are dropped. *)
let () =
  let lines = Array.of_list (String.split_on_char '\n' (In_channel.input_all stdin)) in
  let line i = if i < Array.length lines then lines.(i) else "" in
  let keep = ref false in
  Array.iteri
    (fun i l ->
      let title = line (i + 1) in
      if l <> "" && String.for_all (Char.equal '=') l && String.starts_with ~prefix:"= " title then
        keep := String.starts_with ~prefix:"= Figure" title;
      if !keep || String.starts_with ~prefix:"degraded:" l then print_endline l)
    lines
