let () = print_int Foo.only_tested
