"""`python -m asymauto`: the same command as the `asymauto` console script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
