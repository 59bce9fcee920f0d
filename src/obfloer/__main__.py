from .front import main
raise SystemExit(main())
