(* Throwaway source trees for the lint tests, shared by every test
   executable of the stanza.  A tree is written under a fresh temporary
   root and compiled there with [ocamlc -bin-annot], from the root, so
   the artefacts sit next to their sources with repo-relative
   [cmt_sourcefile]s — the way dune records them — and [Driver.run]
   reads them exactly as it reads the real build. *)

module Finding = Search_analysis.Finding
module Driver = Search_analysis.Driver

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* [files] are (root-relative path, contents); parents are created *)
let make_tree files =
  let root = Filename.temp_file "faulty_search_lint" ".d" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  List.iter
    (fun (name, contents) ->
      let path = Filename.concat root name in
      mkdir_p (Filename.dirname path);
      write_file path contents)
    files;
  root

(* Compile [files] in order (an [.mli] before its [.ml]), with every
   directory among them on the include path. *)
let compile root files =
  let dirs = List.sort_uniq String.compare (List.map Filename.dirname files) in
  Sys.command
    (Printf.sprintf "cd %s && ocamlc -bin-annot -c %s %s >/dev/null 2>&1"
       (Filename.quote root)
       (String.concat " " (List.map (fun d -> "-I " ^ Filename.quote d) dirs))
       (String.concat " " (List.map Filename.quote files)))
  = 0

let have_ocamlc = lazy (Sys.command "ocamlc -version >/dev/null 2>&1" = 0)

(* The toolchain container always has ocamlc; degrade to a vacuous pass
   elsewhere rather than failing the suite over infrastructure. *)
let with_ocamlc k = if Lazy.force have_ocamlc then k () else ()

(* [make_tree] then [compile] every file in list order *)
let tree files =
  let root = make_tree files in
  Alcotest.(check bool)
    "fixtures compile" true
    (compile root (List.map fst files));
  root

let lint ?(jobs = 1) ?rules ?allow ?budget root =
  Driver.run ~jobs ?rules ?allow ?budget ~root ()

let by_rule rule findings =
  List.filter (fun f -> String.equal f.Finding.rule rule) findings

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s
    && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0
