(* Discovery and loading of the .cmt/.cmti artefacts dune emits
   (-bin-annot is on by default; `dune build @check` declares one for
   every module).  Every pass works on the Typedtree because it is the
   only representation where names are *resolved* and operands carry
   types: a call written [Pool.async] in one module and
   [Search_exec.Pool.async] in another is the same [Path.t], module
   aliases are explicit [Tstr_module] items, and locations still point
   into the original source.

   An artefact only speaks for the source it was compiled from, so
   [match_sources] checks the digest recorded at compile time against
   the file on disk: a missing or stale artefact is reported, never
   silently analysed in place of the current code.

   Discovery order is sorted, so every later stage that folds over
   units does so in a deterministic order regardless of the worker-pool
   size. *)

type annots =
  | Impl of Typedtree.structure
  | Intf of Typedtree.signature
  | Other

type unit_info = {
  cmt_path : string;
  modname : string;
  source : string option;
  digest : Digest.t option;
  annots : annots;
}

(* Where the artefacts live.  Run from a checkout the cmts are under
   [_build/default]; run from inside the build tree (the [@lint] dune
   alias executes with the context root as cwd) they sit next to the
   copied sources. *)
let build_dir ~root =
  let candidate = Filename.concat root (Filename.concat "_build" "default") in
  if Sys.file_exists candidate && Sys.is_directory candidate then candidate
  else root

(* Sorted walk of [base/dir] for each [dir], keeping the files [keep]
   accepts and descending into the directories [descend] accepts. *)
let walk ~base ~dirs ~descend ~keep =
  let acc = ref [] in
  let rec go rel =
    let abs = Filename.concat base rel in
    match Sys.is_directory abs with
    | exception Sys_error _ -> ()
    | false -> if keep rel then acc := rel :: !acc
    | true ->
        if descend (Filename.basename rel) then
          Array.iter
            (fun entry -> go (rel ^ "/" ^ entry))
            (let entries = Sys.readdir abs in
             Array.sort String.compare entries;
             entries)
  in
  List.iter
    (fun dir -> if Sys.file_exists (Filename.concat base dir) then go dir)
    dirs;
  List.sort String.compare !acc

let has_suffix suffixes name =
  List.exists (fun s -> Filename.check_suffix name s) suffixes

let discover_sources ~root ~dirs =
  walk ~base:root ~dirs
    ~descend:(fun name ->
      not
        (name = "_build" || name = "_opam"
        || (String.length name > 0 && name.[0] = '.')))
    ~keep:(has_suffix [ ".ml"; ".mli" ])

(* unlike source discovery, dot-directories are NOT skipped: dune keeps
   objects under [.objs]/[.eobjs] *)
let discover ~build_dir ~dirs =
  walk ~base:build_dir ~dirs ~descend:(fun _ -> true)
    ~keep:(has_suffix [ ".cmt"; ".cmti" ])

(* [Cmt_format.read_cmt] funnels through compiler-libs unmarshalling
   helpers whose domain-safety nobody guarantees; loads are serialised
   under one mutex.  The pure walks downstream run in parallel. *)
let read_mutex = Mutex.create ()

let rebuild_hint = "build with `dune build @check` and rerun"

let load ~build_dir cmt_path =
  let abs = Filename.concat build_dir cmt_path in
  match Mutex.protect read_mutex (fun () -> Cmt_format.read_cmt abs) with
  | exception e ->
      Error
        (Finding.v ~rule:"cmt-load" ~severity:Finding.Error ~file:cmt_path
           ~loc:(Location.in_file cmt_path) ~suggestion:rebuild_hint
           (Printf.sprintf "cannot load cmt artefact: %s"
              (Printexc.to_string e)))
  | cmt ->
      Ok
        {
          cmt_path;
          modname = cmt.Cmt_format.cmt_modname;
          source = cmt.Cmt_format.cmt_sourcefile;
          digest = cmt.Cmt_format.cmt_source_digest;
          annots =
            (match cmt.Cmt_format.cmt_annots with
            | Cmt_format.Implementation st -> Impl st
            | Cmt_format.Interface sg -> Intf sg
            | Cmt_format.Packed _ | Cmt_format.Partial_implementation _
            | Cmt_format.Partial_interface _ ->
                Other);
        }

let match_sources ~root ~sources units =
  let by_source = Hashtbl.create 256 in
  let generated =
    List.filter
      (fun u ->
        match u.source with
        | Some src when has_suffix [ ".ml"; ".mli" ] src ->
            if not (Hashtbl.mem by_source src) then
              Hashtbl.add by_source src u;
            false
        | Some src -> Filename.check_suffix src ".ml-gen"
        | None -> false)
      units
  in
  let missing src message =
    Error
      (Finding.v ~rule:"cmt-load" ~severity:Finding.Error ~file:src
         ~loc:(Location.in_file src) ~suggestion:rebuild_hint message)
  in
  let paired =
    List.map
      (fun src ->
        match Hashtbl.find_opt by_source src with
        | None ->
            missing src
              (Printf.sprintf "no %s artefact for this source"
                 (if Filename.check_suffix src ".mli" then ".cmti" else ".cmt"))
        | Some u -> (
            let on_disk = Digest.file (Filename.concat root src) in
            match u.digest with
            | Some d when Digest.equal d on_disk -> Ok u
            | _ ->
                missing src
                  (Printf.sprintf
                     "artefact %s was compiled from other contents of this \
                      source"
                     u.cmt_path)))
      sources
  in
  ( List.filter_map Result.to_option paired,
    generated,
    List.filter_map
      (function Error f -> Some f | Ok _ -> None)
      paired )

(* One unit per compilation-unit name: bench executables each get a
   [dune__exe] wrapper of the same name; the sorted first occurrence
   wins, deterministically. *)
let dedup units =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun u ->
      if Hashtbl.mem seen u.modname then false
      else begin
        Hashtbl.add seen u.modname ();
        true
      end)
    units

(* The exception-flow pass needs to know which defs are *public*: a
   unit's [.cmti] records the type-checked signature, and the dotted
   value names in it (recursing into plain submodule signatures) are
   exactly the exported surface. *)
let rec exports_of_signature prefix (sg : Types.signature) =
  List.concat_map
    (function
      | Types.Sig_value (id, _, _) -> [ prefix ^ Ident.name id ]
      | Types.Sig_module (id, _, md, _, _) -> (
          match md.Types.md_type with
          | Types.Mty_signature sub ->
              exports_of_signature (prefix ^ Ident.name id ^ ".") sub
          | _ -> [])
      | _ -> [])
    sg

let exports u =
  match u.annots with
  | Intf tsig ->
      Some
        ( u.modname,
          List.sort String.compare
            (exports_of_signature "" tsig.Typedtree.sig_type) )
  | Impl _ | Other -> None
