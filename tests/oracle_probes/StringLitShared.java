import javax.annotation.concurrent.ThreadSafe;

// both blocks lock the one interned string "a b"
@ThreadSafe
class StringLitShared {
  private int n;

  public void inc() {
    synchronized ("a b") {
      n = n + 1;
    }
  }

  public int get() {
    synchronized ("a b") {
      return n;
    }
  }
}
